package deploy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pprengine/internal/ha"
)

// ParseReplicaPeers parses "1=hostA:7001|hostB:7001,2=hostC:7002" into a
// shard → serving-address list map. The first address of each shard is its
// primary (the owner under owner-compute); the rest are replicas in failover
// preference order. A spec without '|' separators is exactly the ParsePeers
// syntax, so existing single-copy deployments parse unchanged.
func ParseReplicaPeers(spec string) (map[int32][]string, error) {
	peers := map[int32][]string{}
	if strings.TrimSpace(spec) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("deploy: bad peer %q (want shard=host:port[|host:port...])", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("deploy: bad peer shard id %q", kv[0])
		}
		var addrs []string
		for _, addr := range strings.Split(kv[1], "|") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("deploy: empty address for shard %d", id)
			}
			addrs = append(addrs, addr)
		}
		peers[int32(id)] = addrs
	}
	return peers, nil
}

// FormatReplicaPeers renders a replica-peer map back to the flag syntax.
func FormatReplicaPeers(peers map[int32][]string) string {
	ids := make([]int, 0, len(peers))
	for id := range peers {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("%d=%s", id, strings.Join(peers[int32(id)], "|")))
	}
	return strings.Join(parts, ",")
}

// PrimaryPeers projects a replica-peer map onto the single-address form the
// non-replicated bootstrap paths take (each shard's primary).
func PrimaryPeers(peers map[int32][]string) map[int32]string {
	out := make(map[int32]string, len(peers))
	for id, addrs := range peers {
		if len(addrs) > 0 {
			out[id] = addrs[0]
		}
	}
	return out
}

// PlanReplicas computes a replica placement from per-shard weights (core-node
// or byte counts from the partition map): shard s's primary is machine s, and
// each of the replicas-1 extra copies goes to the least-loaded other machine.
// Ops tooling uses this to decide which shard files to ship where before
// starting the extra pprserve processes.
func PlanReplicas(weights []int64, replicas int) (ha.Placement, error) {
	return ha.PlaceWeighted(weights, replicas)
}

// Replicated reports whether a replica-peer map actually lists more than one
// serving address for any shard (i.e. whether the HA paths are worth wiring).
func Replicated(peers map[int32][]string) bool {
	for _, addrs := range peers {
		if len(addrs) > 1 {
			return true
		}
	}
	return false
}

// ValidateReplicas checks that every shard in peers lists at least r serving
// addresses (for a -replicas flag asserting the expected redundancy).
func ValidateReplicas(peers map[int32][]string, r int) error {
	if r <= 1 {
		return nil
	}
	for id, addrs := range peers {
		if len(addrs) < r {
			return fmt.Errorf("deploy: shard %d lists %d serving address(es), want >= %d (-replicas)", id, len(addrs), r)
		}
	}
	return nil
}
