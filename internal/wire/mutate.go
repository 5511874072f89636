// Mutation wire format: the payloads behind MethodApplyMutations and the
// epoch-pinned variant of the neighbor-info fetch (MethodGetNeighborInfosAt).
//
// A mutation batch travels fully *resolved*: the coordinator has already
// translated global node IDs to (shard, local) addresses and chosen a shard
// for every new vertex, so every receiving machine — owners and replicas
// alike — applies the identical ordered op list against identical prior
// state and lands in the identical post state. That is what keeps a
// failed-over replica score-identical to the primary it replaced.

package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Mutation op kinds.
const (
	MutAddEdge   uint8 = 0 // add (or stack) a weighted directed edge src -> dst
	MutDelEdge   uint8 = 1 // remove the first src -> dst entry
	MutAddVertex uint8 = 2 // append a new vertex at the pre-assigned address
)

// MutOp is one resolved mutation. For edge ops Src/Dst are both meaningful;
// for MutAddVertex, (SrcShard, SrcLocal) is the address the coordinator
// assigned and Global is the new vertex's global ID.
//
// SrcWDeg and DstWDeg carry the coordinator's resolution of the endpoints'
// weighted out-degrees *before* this op: a mirror that bases neither
// endpoint's shard can still update the source's degree-override chain
// (SrcWDeg ± Weight) and stamp the new neighbor entry's denormalized degree
// column (DstWDeg) by pure arithmetic, without a remote read. For MutDelEdge,
// Weight is the weight of the entry being removed, also pre-resolved.
type MutOp struct {
	Kind     uint8
	SrcShard int32
	SrcLocal int32
	DstShard int32
	DstLocal int32
	Weight   float32
	SrcWDeg  float32
	DstWDeg  float32
	Global   int32
}

// MutationBatch is one atomically-applied group of resolved mutations. The
// coordinator assigns Epoch: applying the batch makes its effects visible to
// every query that pins Epoch or later, and invisible to earlier pins.
type MutationBatch struct {
	Epoch uint64
	Ops   []MutOp
}

const mutOpSize = 1 + 4*8

// MutationBatchSize returns the exact encoded size of b.
func MutationBatchSize(b *MutationBatch) int { return 12 + mutOpSize*len(b.Ops) }

// EncodeMutationBatch serializes b.
func EncodeMutationBatch(b *MutationBatch) []byte {
	out := make([]byte, 0, MutationBatchSize(b))
	out = binary.LittleEndian.AppendUint64(out, b.Epoch)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Ops)))
	for i := range b.Ops {
		op := &b.Ops[i]
		out = append(out, op.Kind)
		out = binary.LittleEndian.AppendUint32(out, uint32(op.SrcShard))
		out = binary.LittleEndian.AppendUint32(out, uint32(op.SrcLocal))
		out = binary.LittleEndian.AppendUint32(out, uint32(op.DstShard))
		out = binary.LittleEndian.AppendUint32(out, uint32(op.DstLocal))
		out = binary.LittleEndian.AppendUint32(out, floatBits(op.Weight))
		out = binary.LittleEndian.AppendUint32(out, floatBits(op.SrcWDeg))
		out = binary.LittleEndian.AppendUint32(out, floatBits(op.DstWDeg))
		out = binary.LittleEndian.AppendUint32(out, uint32(op.Global))
	}
	return out
}

// DecodeMutationBatch parses an EncodeMutationBatch payload. The result owns
// its memory (no aliasing): mutation batches are retained past the handler.
func DecodeMutationBatch(b []byte) (*MutationBatch, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("wire: short mutation batch")
	}
	out := &MutationBatch{Epoch: binary.LittleEndian.Uint64(b)}
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if len(b) != mutOpSize*n {
		return nil, fmt.Errorf("wire: mutation batch claims %d ops, %d bytes remain", n, len(b))
	}
	out.Ops = make([]MutOp, n)
	for i := 0; i < n; i++ {
		op := &out.Ops[i]
		op.Kind = b[0]
		if op.Kind > MutAddVertex {
			return nil, fmt.Errorf("wire: mutation op %d has unknown kind %d", i, op.Kind)
		}
		op.SrcShard = int32(binary.LittleEndian.Uint32(b[1:]))
		op.SrcLocal = int32(binary.LittleEndian.Uint32(b[5:]))
		op.DstShard = int32(binary.LittleEndian.Uint32(b[9:]))
		op.DstLocal = int32(binary.LittleEndian.Uint32(b[13:]))
		op.Weight = floatFrom(binary.LittleEndian.Uint32(b[17:]))
		op.SrcWDeg = floatFrom(binary.LittleEndian.Uint32(b[21:]))
		op.DstWDeg = floatFrom(binary.LittleEndian.Uint32(b[25:]))
		op.Global = int32(binary.LittleEndian.Uint32(b[29:]))
		b = b[mutOpSize:]
	}
	return out, nil
}

// EncodeMutationAck serializes a mutation response: the epoch the receiving
// store reached after applying the batch.
func EncodeMutationAck(epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), epoch)
}

// DecodeMutationAck parses an EncodeMutationAck payload.
func DecodeMutationAck(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("wire: mutation ack has %d bytes, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// --- epoch-pinned ID list (MethodGetNeighborInfosAt requests) ---

// EncodeIDListAt serializes an epoch-pinned fetch request: the pinned epoch
// followed by the EncodeIDList layout. The server answers with the rows'
// state as of that epoch (base CSR plus all deltas with epoch <= pinned).
func EncodeIDListAt(epoch uint64, ids []int32) []byte {
	return AppendI32s(IDListAtHeader(epoch, len(ids)), ids)
}

// IDListAtHeader is IDListHeader for an EncodeIDListAt payload.
func IDListAtHeader(epoch uint64, n int) []byte {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 12+4*n), epoch)
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// DecodeIDListAt parses an EncodeIDListAt payload (copying decoder).
func DecodeIDListAt(b []byte) (uint64, []int32, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("wire: short epoch ID list")
	}
	epoch := binary.LittleEndian.Uint64(b)
	ids, err := DecodeIDList(b[8:])
	return epoch, ids, err
}

// DecodeIDListAtView is DecodeIDListAt with the IDs aliased in place when the
// host allows it. The epoch header is 8 bytes, so a 4-aligned payload keeps
// the IDs (at offset 12) 4-aligned too. The returned slice is a view: valid
// only while the payload's buffer is.
func DecodeIDListAtView(b []byte) (uint64, []int32, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("wire: short epoch ID list")
	}
	epoch := binary.LittleEndian.Uint64(b)
	ids, err := DecodeIDListView(b[8:])
	return epoch, ids, err
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }
func floatFrom(u uint32) float32 { return math.Float32frombits(u) }
