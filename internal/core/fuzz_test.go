package core

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"pprengine/internal/delta"
	"pprengine/internal/graph"
	"pprengine/internal/shard"
	"pprengine/internal/wire"
)

// FuzzNeighborInfosHandlers throws hostile request frames at methods 1 and 11
// — which share one handler body — on a server with a delta store that has
// applied one epoch. Whatever the bytes, a handler returns an error or a
// well-formed CSR response; it never panics, and an answered request has one
// row per requested ID.
func FuzzNeighborInfosHandlers(f *testing.F) {
	g := testGraph(5, 60, 300)
	shards, loc := mustBuildShards(f, g, 2)
	ss := NewStorageServer(shards[0], loc)
	store := delta.NewStore(loc, map[int32]*shard.Shard{0: shards[0]})
	ss.AttachDelta(store)
	if err := store.Apply(&wire.MutationBatch{Epoch: 1}); err != nil {
		f.Fatal(err)
	}

	at := func(epoch uint64, list []byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, epoch), list...)
	}
	good := wire.EncodeIDList([]int32{0, 1, 2})
	for _, seed := range [][]byte{
		nil, {}, {1}, good,
		wire.EncodeIDList(nil),
		wire.EncodeIDList([]int32{-1}),          // negative local
		wire.EncodeIDList([]int32{1 << 30}),     // far past the shard
		good[:len(good)-1],                      // torn tail
		append(append([]byte(nil), good...), 0), // trailing byte
		{0xff, 0xff, 0xff, 0xff},                // count with no IDs
		{0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0},    // huge count, one ID
		at(1, good), at(0, good),                // method 11 shapes
		at(1, good)[:11], // epoch + torn count
		at(1<<40, good),  // an epoch nobody assigned
		at(1, wire.EncodeIDList([]int32{59, 60, -7})),     // mixed valid/invalid
		at(1, wire.EncodeIDList([]int32{0, -1708117968})), // negative local at a pinned epoch (found by the fuzzer: indexed the base CSR)
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		// A request for an epoch the store has not reached waits for it; bound
		// that wait so the unknown-epoch inputs fail fast.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		for method, handle := range map[string]func(context.Context, []byte) (respBuf, error){
			"GetNeighborInfos":   func(ctx context.Context, p []byte) (respBuf, error) { return ss.handleNeighborInfos(ctx, p) },
			"GetNeighborInfosAt": func(ctx context.Context, p []byte) (respBuf, error) { return ss.handleNeighborInfosAt(ctx, p) },
		} {
			buf, err := handle(ctx, p)
			if err != nil {
				continue
			}
			infos, derr := wire.DecodeCSR(buf.Bytes())
			if derr != nil {
				t.Fatalf("%s answered %x with an undecodable response: %v", method, p, derr)
			}
			if verr := infos.Validate(); verr != nil {
				t.Fatalf("%s answered %x with an invalid CSR: %v", method, p, verr)
			}
			want := p
			if method == "GetNeighborInfosAt" {
				want = p[8:]
			}
			if ids, _ := wire.DecodeIDList(want); infos.NumRows() != len(ids) {
				t.Fatalf("%s answered %d rows for %d IDs", method, infos.NumRows(), len(ids))
			}
			buf.Release()
		}
	})
}

type respBuf interface {
	Bytes() []byte
	Release()
}

func mustBuildShards(tb testing.TB, g *graph.Graph, k int) ([]*shard.Shard, *shard.Locator) {
	tb.Helper()
	assign := make([]int32, g.NumNodes)
	for v := range assign {
		assign[v] = int32(v % k)
	}
	shards, loc, err := shard.Build(g, assign, k)
	if err != nil {
		tb.Fatal(err)
	}
	return shards, loc
}
