// Package wire defines the payload encodings exchanged between compute
// processes and graph-storage servers. It is where the paper's "Compress"
// optimization (§3.2.3) lives:
//
//   - The CSR encoding packs a whole batch of neighbor infos into five
//     contiguous arrays behind a single header — the same structure as the
//     Graph Shard itself, so responses are consumed zero-copy through the
//     VertexProp-style Row accessor.
//
//   - The list-of-lists (LoL) encoding mimics the naive "list of small
//     tensors with non-equal lengths": every per-node array carries its own
//     tensor-style header, inflating both bytes on the wire and per-element
//     encode/decode work. It exists as the ablation baseline.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// NeighborInfos is a batch of neighbor information for a list of requested
// vertices, in CSR layout: row i of the batch describes the i-th requested
// vertex, and its neighbor tuples live at [Indptr[i], Indptr[i+1]).
type NeighborInfos struct {
	Indptr  []int32
	Locals  []int32
	Shards  []int32
	Weights []float32
	WDegs   []float32
	// RowWDeg is the weighted degree of each requested vertex itself,
	// needed by push to compute W(v,u)/dw(v).
	RowWDeg []float32
}

// NumRows returns the number of vertices in the batch.
func (n *NeighborInfos) NumRows() int {
	if len(n.Indptr) == 0 {
		return 0
	}
	return len(n.Indptr) - 1
}

// Row returns the neighbor tuple slices of batch row i (aliases, no copy).
func (n *NeighborInfos) Row(i int) (locals, shards []int32, weights, wdegs []float32) {
	lo, hi := n.Indptr[i], n.Indptr[i+1]
	return n.Locals[lo:hi], n.Shards[lo:hi], n.Weights[lo:hi], n.WDegs[lo:hi]
}

// Validate checks CSR invariants.
func (n *NeighborInfos) Validate() error {
	if len(n.Indptr) == 0 {
		if len(n.Locals) != 0 {
			return fmt.Errorf("wire: entries without indptr")
		}
		return nil
	}
	if n.Indptr[0] != 0 {
		return fmt.Errorf("wire: Indptr[0] != 0")
	}
	last := n.Indptr[len(n.Indptr)-1]
	if int(last) != len(n.Locals) || len(n.Locals) != len(n.Shards) ||
		len(n.Locals) != len(n.Weights) || len(n.Locals) != len(n.WDegs) {
		return fmt.Errorf("wire: array length mismatch")
	}
	if len(n.RowWDeg) != n.NumRows() {
		return fmt.Errorf("wire: RowWDeg length %d != rows %d", len(n.RowWDeg), n.NumRows())
	}
	for i := 1; i < len(n.Indptr); i++ {
		if n.Indptr[i] < n.Indptr[i-1] {
			return fmt.Errorf("wire: Indptr not monotone")
		}
	}
	return nil
}

// --- primitive helpers ---

func putI32s(b []byte, v []int32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func putF32s(b []byte, v []float32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

func getI32s(b []byte, n int) ([]int32, []byte, error) {
	if len(b) < 4*n {
		return nil, nil, fmt.Errorf("wire: short buffer for %d int32s", n)
	}
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, b[4*n:], nil
}

func getF32s(b []byte, n int) ([]float32, []byte, error) {
	if len(b) < 4*n {
		return nil, nil, fmt.Errorf("wire: short buffer for %d float32s", n)
	}
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, b[4*n:], nil
}

// EncodeIDList serializes a request: a list of local vertex IDs.
func EncodeIDList(ids []int32) []byte { return AppendI32s(IDListHeader(len(ids)), ids) }

// IDListHeader starts an EncodeIDList payload of n IDs: the header, with
// capacity for the IDs, which the caller appends with AppendI32s — a request
// gathered from several ID lists is encoded in one pass.
func IDListHeader(n int) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, 4+4*n), uint32(n))
}

// AppendI32s appends v in the wire's little-endian int32 layout.
func AppendI32s(dst []byte, v []int32) []byte { return putI32s(dst, v) }

// DecodeIDList parses an EncodeIDList payload.
func DecodeIDList(b []byte) ([]int32, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: short ID list")
	}
	n := int(binary.LittleEndian.Uint32(b))
	ids, rest, err := getI32s(b[4:], n)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in ID list", len(rest))
	}
	return ids, nil
}

// --- CSR (compressed) neighbor-info encoding ---

// EncodeCSR serializes a NeighborInfos batch in the compressed format:
// one header, then six contiguous arrays.
func EncodeCSR(n *NeighborInfos) []byte {
	rows := n.NumRows()
	entries := len(n.Locals)
	b := make([]byte, 0, 8+4*(rows+1)+16*entries+4*rows)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(entries))
	b = putI32s(b, n.Indptr)
	b = putI32s(b, n.Locals)
	b = putI32s(b, n.Shards)
	b = putF32s(b, n.Weights)
	b = putF32s(b, n.WDegs)
	b = putF32s(b, n.RowWDeg)
	return b
}

// DecodeCSR parses an EncodeCSR payload.
func DecodeCSR(b []byte) (*NeighborInfos, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wire: short CSR header")
	}
	rows := int(binary.LittleEndian.Uint32(b))
	entries := int(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	n := &NeighborInfos{}
	var err error
	if rows > 0 {
		if n.Indptr, b, err = getI32s(b, rows+1); err != nil {
			return nil, err
		}
	} else {
		n.Indptr = []int32{}
	}
	if n.Locals, b, err = getI32s(b, entries); err != nil {
		return nil, err
	}
	if n.Shards, b, err = getI32s(b, entries); err != nil {
		return nil, err
	}
	if n.Weights, b, err = getF32s(b, entries); err != nil {
		return nil, err
	}
	if n.WDegs, b, err = getF32s(b, entries); err != nil {
		return nil, err
	}
	if n.RowWDeg, b, err = getF32s(b, rows); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in CSR payload", len(b))
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// --- list-of-lists (uncompressed) neighbor-info encoding ---

// tensorHeaderSize mimics the fixed per-tensor wrapping cost (dtype, shape,
// strides metadata) that a tensor RPC backend pays for every small tensor in
// a list-of-lists response.
const tensorHeaderSize = 16

func putTensorHeader(b []byte, n int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(n)) // shape
	b = binary.LittleEndian.AppendUint32(b, 4)         // dtype size
	b = binary.LittleEndian.AppendUint64(b, uint64(n)) // numel, redundant on purpose
	return b
}

func readTensorHeader(b []byte) (int, []byte, error) {
	if len(b) < tensorHeaderSize {
		return 0, nil, fmt.Errorf("wire: short tensor header")
	}
	n := int(binary.LittleEndian.Uint32(b))
	return n, b[tensorHeaderSize:], nil
}

// EncodeLoL serializes the batch as a list of per-node tensor groups: for
// every requested vertex, four individually-headed arrays plus its own
// weighted degree. This is deliberately the expensive format.
func EncodeLoL(n *NeighborInfos) []byte {
	rows := n.NumRows()
	b := make([]byte, 0, 4+rows*(4+4*tensorHeaderSize)+16*len(n.Locals))
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	for i := 0; i < rows; i++ {
		locals, shards, weights, wdegs := n.Row(i)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(n.RowWDeg[i]))
		b = putTensorHeader(b, len(locals))
		b = putI32s(b, locals)
		b = putTensorHeader(b, len(shards))
		b = putI32s(b, shards)
		b = putTensorHeader(b, len(weights))
		b = putF32s(b, weights)
		b = putTensorHeader(b, len(wdegs))
		b = putF32s(b, wdegs)
	}
	return b
}

// DecodeLoL parses an EncodeLoL payload into the same NeighborInfos form.
func DecodeLoL(b []byte) (*NeighborInfos, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: short LoL header")
	}
	rows := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// The row count is a capacity hint from an untrusted header: clamp it by
	// what the payload could possibly hold (every row costs at least its
	// RowWDeg plus four tensor headers) so a corrupt or hostile count cannot
	// force a huge speculative allocation. An inflated count that survives
	// the clamp still fails the truncation checks inside the loop.
	hint := min(rows, len(b)/(4+4*tensorHeaderSize))
	n := &NeighborInfos{
		Indptr:  make([]int32, 1, hint+1),
		RowWDeg: make([]float32, 0, hint),
	}
	for i := 0; i < rows; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("wire: truncated LoL row %d", i)
		}
		n.RowWDeg = append(n.RowWDeg, math.Float32frombits(binary.LittleEndian.Uint32(b)))
		b = b[4:]
		var deg int
		var err error
		if deg, b, err = readTensorHeader(b); err != nil {
			return nil, err
		}
		var locals []int32
		if locals, b, err = getI32s(b, deg); err != nil {
			return nil, err
		}
		var d2 int
		if d2, b, err = readTensorHeader(b); err != nil {
			return nil, err
		}
		if d2 != deg {
			return nil, fmt.Errorf("wire: LoL row %d shard count mismatch", i)
		}
		var shards []int32
		if shards, b, err = getI32s(b, deg); err != nil {
			return nil, err
		}
		if d2, b, err = readTensorHeader(b); err != nil {
			return nil, err
		}
		if d2 != deg {
			return nil, fmt.Errorf("wire: LoL row %d weight count mismatch", i)
		}
		var weights []float32
		if weights, b, err = getF32s(b, deg); err != nil {
			return nil, err
		}
		if d2, b, err = readTensorHeader(b); err != nil {
			return nil, err
		}
		if d2 != deg {
			return nil, fmt.Errorf("wire: LoL row %d wdeg count mismatch", i)
		}
		var wdegs []float32
		if wdegs, b, err = getF32s(b, deg); err != nil {
			return nil, err
		}
		n.Locals = append(n.Locals, locals...)
		n.Shards = append(n.Shards, shards...)
		n.Weights = append(n.Weights, weights...)
		n.WDegs = append(n.WDegs, wdegs...)
		n.Indptr = append(n.Indptr, int32(len(n.Locals)))
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in LoL payload", len(b))
	}
	if rows == 0 {
		n.Indptr = []int32{}
	}
	return n, nil
}

// --- sample-one-neighbor encoding (random walk) ---

// SampleRequest asks the destination shard to sample one out-neighbor for
// each listed core vertex, using the given seed for reproducibility.
type SampleRequest struct {
	Seed   int64
	Locals []int32
}

// EncodeSampleRequest serializes r.
func EncodeSampleRequest(r *SampleRequest) []byte {
	b := make([]byte, 0, 12+4*len(r.Locals))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Seed))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Locals)))
	return putI32s(b, r.Locals)
}

// DecodeSampleRequest parses an EncodeSampleRequest payload.
func DecodeSampleRequest(b []byte) (*SampleRequest, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("wire: short sample request")
	}
	r := &SampleRequest{Seed: int64(binary.LittleEndian.Uint64(b))}
	n := int(binary.LittleEndian.Uint32(b[8:]))
	var err error
	if r.Locals, b, err = getI32s(b[12:], n); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: trailing bytes in sample request")
	}
	return r, nil
}

// SampleResponse carries, per requested vertex, the sampled neighbor's
// (local, shard) address and its global ID (for the walk summary). A vertex
// with no out-neighbors gets local = -1.
type SampleResponse struct {
	Locals  []int32
	Shards  []int32
	Globals []int32
}

// EncodeSampleResponse serializes r.
func EncodeSampleResponse(r *SampleResponse) []byte {
	b := make([]byte, 0, 4+12*len(r.Locals))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Locals)))
	b = putI32s(b, r.Locals)
	b = putI32s(b, r.Shards)
	b = putI32s(b, r.Globals)
	return b
}

// DecodeSampleResponse parses an EncodeSampleResponse payload.
func DecodeSampleResponse(b []byte) (*SampleResponse, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: short sample response")
	}
	n := int(binary.LittleEndian.Uint32(b))
	r := &SampleResponse{}
	var err error
	if r.Locals, b, err = getI32s(b[4:], n); err != nil {
		return nil, err
	}
	if r.Shards, b, err = getI32s(b, n); err != nil {
		return nil, err
	}
	if r.Globals, b, err = getI32s(b, n); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: trailing bytes in sample response")
	}
	return r, nil
}

// --- k-hop fanout sampling encoding (GraphSAGE-style BFS primitive) ---

// SampleNRequest asks a shard to sample up to Fanout weighted out-neighbors
// (without replacement) for each listed core vertex.
type SampleNRequest struct {
	Seed   int64
	Fanout int32
	Locals []int32
}

// EncodeSampleNRequest serializes r.
func EncodeSampleNRequest(r *SampleNRequest) []byte {
	b := make([]byte, 0, 16+4*len(r.Locals))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Seed))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Fanout))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Locals)))
	return putI32s(b, r.Locals)
}

// DecodeSampleNRequest parses an EncodeSampleNRequest payload.
func DecodeSampleNRequest(b []byte) (*SampleNRequest, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("wire: short sampleN request")
	}
	r := &SampleNRequest{
		Seed:   int64(binary.LittleEndian.Uint64(b)),
		Fanout: int32(binary.LittleEndian.Uint32(b[8:])),
	}
	n := int(binary.LittleEndian.Uint32(b[12:]))
	var err error
	if r.Locals, b, err = getI32s(b[16:], n); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: trailing bytes in sampleN request")
	}
	return r, nil
}

// SampleNResponse is a ragged batch of sampled neighbors: row i holds the
// sampled neighbors of the i-th requested vertex at
// [Indptr[i], Indptr[i+1]).
type SampleNResponse struct {
	Indptr  []int32
	Locals  []int32
	Shards  []int32
	Globals []int32
}

// Row returns row i's slices.
func (r *SampleNResponse) Row(i int) (locals, shards, globals []int32) {
	lo, hi := r.Indptr[i], r.Indptr[i+1]
	return r.Locals[lo:hi], r.Shards[lo:hi], r.Globals[lo:hi]
}

// NumRows returns the number of rows.
func (r *SampleNResponse) NumRows() int {
	if len(r.Indptr) == 0 {
		return 0
	}
	return len(r.Indptr) - 1
}

// EncodeSampleNResponse serializes r.
func EncodeSampleNResponse(r *SampleNResponse) []byte {
	rows := r.NumRows()
	b := make([]byte, 0, 8+4*(rows+1)+12*len(r.Locals))
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Locals)))
	b = putI32s(b, r.Indptr)
	b = putI32s(b, r.Locals)
	b = putI32s(b, r.Shards)
	b = putI32s(b, r.Globals)
	return b
}

// DecodeSampleNResponse parses an EncodeSampleNResponse payload.
func DecodeSampleNResponse(b []byte) (*SampleNResponse, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wire: short sampleN response")
	}
	rows := int(binary.LittleEndian.Uint32(b))
	entries := int(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	r := &SampleNResponse{}
	var err error
	if rows > 0 {
		if r.Indptr, b, err = getI32s(b, rows+1); err != nil {
			return nil, err
		}
	} else {
		r.Indptr = []int32{}
	}
	if r.Locals, b, err = getI32s(b, entries); err != nil {
		return nil, err
	}
	if r.Shards, b, err = getI32s(b, entries); err != nil {
		return nil, err
	}
	if r.Globals, b, err = getI32s(b, entries); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: trailing bytes in sampleN response")
	}
	return r, nil
}

// --- shard statistics encoding ---

// ShardStats mirrors shard.Stats for the RPC surface (paper §3.2.2: the
// engine "includes several methods for retrieving critical statistics
// about the graph").
type ShardStats struct {
	ShardID      int32
	NumShards    int32
	NumCore      int64
	NumEntries   int64
	HaloNodes    int64
	MemoryBytes  int64
	RemoteFrac   float64
	AvgOutDegree float64
}

// EncodeShardStats serializes s.
func EncodeShardStats(s *ShardStats) []byte {
	b := make([]byte, 0, 56)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.ShardID))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.NumShards))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NumCore))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NumEntries))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.HaloNodes))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.MemoryBytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.RemoteFrac))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.AvgOutDegree))
	return b
}

// DecodeShardStats parses an EncodeShardStats payload.
func DecodeShardStats(b []byte) (*ShardStats, error) {
	if len(b) != 56 {
		return nil, fmt.Errorf("wire: shard stats has %d bytes, want 56", len(b))
	}
	return &ShardStats{
		ShardID:      int32(binary.LittleEndian.Uint32(b)),
		NumShards:    int32(binary.LittleEndian.Uint32(b[4:])),
		NumCore:      int64(binary.LittleEndian.Uint64(b[8:])),
		NumEntries:   int64(binary.LittleEndian.Uint64(b[16:])),
		HaloNodes:    int64(binary.LittleEndian.Uint64(b[24:])),
		MemoryBytes:  int64(binary.LittleEndian.Uint64(b[32:])),
		RemoteFrac:   math.Float64frombits(binary.LittleEndian.Uint64(b[40:])),
		AvgOutDegree: math.Float64frombits(binary.LittleEndian.Uint64(b[48:])),
	}, nil
}

// --- owner-compute query dispatch encoding ---

func putF64s(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func getF64s(b []byte, n int) ([]float64, []byte, error) {
	if len(b) < 8*n {
		return nil, nil, fmt.Errorf("wire: short buffer for %d float64s", n)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:], nil
}

// QueryRequest asks the owner machine to run one SSPPR query for a core
// vertex of its shard and return the top-K results (owner-compute rule over
// RPC: clients never pull the graph, they push the query).
type QueryRequest struct {
	SourceLocal int32
	TopK        int32
	Alpha       float64
	Eps         float64
	// TimeoutMs propagates the client's deadline so the owner stops
	// computing once the client has given up. 0 means no client deadline.
	TimeoutMs uint32
	// Priority and Tenant feed the owner's admission controller: the quota
	// bucket the query draws from and its wait-queue band. Zero/empty are
	// the defaults and keep the encoding at its pre-admission layout.
	Priority int32
	Tenant   string
}

// maxTenantLen caps the tenant ID's encoded length.
const maxTenantLen = 255

// EncodeQueryRequest serializes r. Requests with no admission identity
// (Priority 0, empty Tenant) keep the 28-byte pre-admission layout, so
// default-config clients stay wire-compatible with older servers. A tenant
// longer than 255 bytes is truncated.
func EncodeQueryRequest(r *QueryRequest) []byte {
	tenant := r.Tenant
	if len(tenant) > maxTenantLen {
		tenant = tenant[:maxTenantLen]
	}
	b := make([]byte, 0, 33+len(tenant))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.SourceLocal))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.TopK))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Alpha))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Eps))
	b = binary.LittleEndian.AppendUint32(b, r.TimeoutMs)
	if r.Priority == 0 && tenant == "" {
		return b
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Priority))
	b = append(b, byte(len(tenant)))
	b = append(b, tenant...)
	return b
}

// DecodeQueryRequest parses an EncodeQueryRequest payload. Older layouts are
// still accepted: 24 bytes (pre-deadline) and 28 bytes (pre-admission).
func DecodeQueryRequest(b []byte) (*QueryRequest, error) {
	if len(b) != 24 && len(b) != 28 && len(b) < 33 {
		return nil, fmt.Errorf("wire: query request has %d bytes, want 24, 28, or >= 33", len(b))
	}
	r := &QueryRequest{
		SourceLocal: int32(binary.LittleEndian.Uint32(b)),
		TopK:        int32(binary.LittleEndian.Uint32(b[4:])),
		Alpha:       math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		Eps:         math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}
	if len(b) >= 28 {
		r.TimeoutMs = binary.LittleEndian.Uint32(b[24:])
	}
	if len(b) >= 33 {
		r.Priority = int32(binary.LittleEndian.Uint32(b[28:]))
		n := int(b[32])
		if len(b) != 33+n {
			return nil, fmt.Errorf("wire: query request tenant claims %d bytes, %d remain", n, len(b)-33)
		}
		r.Tenant = string(b[33:])
	}
	return r, nil
}

// QueryResponse carries the ranked results plus the query statistics.
type QueryResponse struct {
	Globals    []int32
	Scores     []float64
	Iterations int32
	Pushes     int64
	Touched    int32
}

// EncodeQueryResponse serializes r.
func EncodeQueryResponse(r *QueryResponse) []byte {
	b := make([]byte, 0, 20+12*len(r.Globals))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Globals)))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Iterations))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Pushes))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Touched))
	b = putI32s(b, r.Globals)
	b = putF64s(b, r.Scores)
	return b
}

// DecodeQueryResponse parses an EncodeQueryResponse payload.
func DecodeQueryResponse(b []byte) (*QueryResponse, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("wire: short query response")
	}
	n := int(binary.LittleEndian.Uint32(b))
	r := &QueryResponse{
		Iterations: int32(binary.LittleEndian.Uint32(b[4:])),
		Pushes:     int64(binary.LittleEndian.Uint64(b[8:])),
		Touched:    int32(binary.LittleEndian.Uint32(b[16:])),
	}
	var err error
	if r.Globals, b, err = getI32s(b[20:], n); err != nil {
		return nil, err
	}
	if r.Scores, b, err = getF64s(b, n); err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: trailing bytes in query response")
	}
	return r, nil
}

// --- feature fetch encoding (GNN case study) ---

// EncodeFeatureResponse serializes a row-major [len(ids) x dim] feature
// block.
func EncodeFeatureResponse(dim int, feats []float32) []byte {
	b := make([]byte, 0, 8+4*len(feats))
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(feats)))
	return putF32s(b, feats)
}

// DecodeFeatureResponse parses an EncodeFeatureResponse payload.
func DecodeFeatureResponse(b []byte) (dim int, feats []float32, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("wire: short feature response")
	}
	dim = int(binary.LittleEndian.Uint32(b))
	n := int(binary.LittleEndian.Uint32(b[4:]))
	feats, rest, err := getF32s(b[8:], n)
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("wire: trailing bytes in feature response")
	}
	return dim, feats, nil
}

// EncodeF32s serializes a bare float32 vector (gradient allreduce payloads).
func EncodeF32s(v []float32) []byte {
	b := make([]byte, 0, 4+4*len(v))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return putF32s(b, v)
}

// DecodeF32s parses an EncodeF32s payload.
func DecodeF32s(b []byte) ([]float32, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: short f32 vector")
	}
	n := int(binary.LittleEndian.Uint32(b))
	v, rest, err := getF32s(b[4:], n)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: trailing bytes in f32 vector")
	}
	return v, nil
}

// TraceContextSize is the encoded length of a trace context: two uint64s
// (trace ID then span ID), appended to a request frame header when the
// frame's traced flag is set.
const TraceContextSize = 16

// AppendTraceContext appends a trace context (trace ID, span ID) to dst in
// the wire's little-endian layout.
func AppendTraceContext(dst []byte, traceID, spanID uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	return binary.LittleEndian.AppendUint64(dst, spanID)
}

// DecodeTraceContext parses an AppendTraceContext block.
func DecodeTraceContext(b []byte) (traceID, spanID uint64, err error) {
	if len(b) < TraceContextSize {
		return 0, 0, fmt.Errorf("wire: short trace context (%d bytes)", len(b))
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), nil
}
