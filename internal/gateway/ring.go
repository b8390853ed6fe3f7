package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over a fixed fleet of worker nodes,
// built once in New and never written again, so lookups need no lock.
// Each node owns ringReplicas virtual points; a key routes to the node
// owning the first point clockwise of the key's hash. A gateway
// restarted with one more worker moves only ~1/N of the key space, all
// of it onto the new worker, so the result-cache locality the routing
// key encodes (identical resubmissions land on the node that already
// holds the result) survives a fleet change.
//
// The hash is FNV-1a over plain strings — deterministic across
// processes, so a restarted gateway routes every key exactly as its
// predecessor did.
type ring struct {
	points  []ringPoint // sorted by hash
	members int
}

type ringPoint struct {
	hash uint64
	node string
}

// newRing builds the ring over nodes (duplicates count once).
func newRing(nodes []string) *ring {
	r := &ring{}
	seen := make(map[string]struct{}, len(nodes))
	for _, node := range nodes {
		if _, ok := seen[node]; ok {
			continue
		}
		seen[node] = struct{}{}
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{ringHash(node + "#" + strconv.Itoa(i)), node})
		}
	}
	r.members = len(seen)
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// sequence returns every member node in ring order starting from the
// key's owner: sequence(key)[0] is where the key lives, and the rest is
// the deterministic failover walk — the order every gateway instance
// agrees to try when the owner is down or full.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, r.members)
	seen := make(map[string]struct{}, r.members)
	for i := 0; i < len(r.points) && len(out) < r.members; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
