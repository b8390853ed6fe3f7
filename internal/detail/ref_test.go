package detail

// The reference detailed placer: Run, globalSwap, localReorder, ismPass
// and matchSet as they were before the cell→net table and the swap caches,
// rebuilding every net list and walking every pin per candidate. Tests
// hold Run to its output bit for bit; it is not a second placer.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"xplace/internal/legal"
	"xplace/internal/netlist"
)

// refState carries the mutable placement during refinement.
type refState struct {
	d    *netlist.Design
	x, y []float64
}

// netHPWL computes one net's HPWL under the current state.
func (st *refState) netHPWL(n int) float64 {
	s, e := st.d.NetPinStart[n], st.d.NetPinStart[n+1]
	if e-s < 2 {
		return 0
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for p := s; p < e; p++ {
		c := st.d.PinCell[p]
		px := st.x[c] + st.d.PinOffX[p]
		py := st.y[c] + st.d.PinOffY[p]
		minX = math.Min(minX, px)
		maxX = math.Max(maxX, px)
		minY = math.Min(minY, py)
		maxY = math.Max(maxY, py)
	}
	return (maxX - minX) + (maxY - minY)
}

// cellNets returns the distinct nets touching cell c.
func (st *refState) cellNets(c int) []int {
	d := st.d
	var nets []int
	seen := map[int]bool{}
	for _, p := range d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]] {
		n := d.PinNet[p]
		if !seen[n] {
			seen[n] = true
			nets = append(nets, n)
		}
	}
	return nets
}

// netsHPWL sums the HPWL of a net id set.
func (st *refState) netsHPWL(nets []int) float64 {
	var s float64
	for _, n := range nets {
		s += st.netHPWL(n)
	}
	return s
}

// refUnionNets merges two net id lists without duplicates.
func refUnionNets(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, n := range a {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range b {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// refRun refines a legal placement and returns improved positions. The input
// slices are not modified.
func refRun(d *netlist.Design, x, y []float64, opts Options) ([]float64, []float64) {
	o := opts.withDefaults()
	st := &refState{
		d: d,
		x: append([]float64(nil), x...),
		y: append([]float64(nil), y...),
	}
	rng := rand.New(rand.NewSource(o.Seed))
	for pass := 0; pass < o.Passes; pass++ {
		st.globalSwap(o, rng)
		st.localReorder(o)
		st.ismPass(o)
	}
	return st.x, st.y
}

// globalSwap tries to exchange each movable cell with a same-footprint
// cell near its optimal region.
func (st *refState) globalSwap(o Options, rng *rand.Rand) {
	d := st.d
	movable := d.MovableCells()
	if len(movable) < 2 {
		return
	}
	// Spatial bucketing of same-size cells for candidate lookup.
	var avgH float64
	for _, c := range movable {
		avgH += d.CellH[c]
	}
	avgH /= float64(len(movable))
	radius := o.SwapRadius * avgH
	cellSz := radius
	if cellSz <= 0 {
		cellSz = 1
	}
	type key struct{ gx, gy int }
	buckets := map[key][]int{}
	bkey := func(px, py float64) key {
		return key{int(math.Floor(px / cellSz)), int(math.Floor(py / cellSz))}
	}
	for _, c := range movable {
		k := bkey(st.x[c], st.y[c])
		buckets[k] = append(buckets[k], c)
	}

	order := append([]int(nil), movable...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	for _, c := range order {
		// Optimal region: centroid of the other pins on c's nets.
		nets := st.cellNets(c)
		if len(nets) == 0 {
			continue
		}
		var ox, oy float64
		cnt := 0
		for _, n := range nets {
			for p := d.NetPinStart[n]; p < d.NetPinStart[n+1]; p++ {
				cc := d.PinCell[p]
				if cc == c {
					continue
				}
				ox += st.x[cc]
				oy += st.y[cc]
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		ox /= float64(cnt)
		oy /= float64(cnt)
		if math.Abs(ox-st.x[c])+math.Abs(oy-st.y[c]) < avgH {
			continue // already near optimal
		}
		// Candidates near the optimal region with the same footprint.
		k0 := bkey(ox, oy)
		bestDelta := -1e-9
		bestCand := -1
		for dgx := -1; dgx <= 1; dgx++ {
			for dgy := -1; dgy <= 1; dgy++ {
				for _, cand := range buckets[key{k0.gx + dgx, k0.gy + dgy}] {
					if cand == c || d.CellW[cand] != d.CellW[c] || d.CellH[cand] != d.CellH[c] {
						continue
					}
					delta := st.swapDelta(c, cand, nets)
					if delta < bestDelta {
						bestDelta = delta
						bestCand = cand
					}
				}
			}
		}
		if bestCand >= 0 {
			st.x[c], st.x[bestCand] = st.x[bestCand], st.x[c]
			st.y[c], st.y[bestCand] = st.y[bestCand], st.y[c]
		}
	}
}

// swapDelta returns the HPWL change of swapping cells a and b (negative
// is an improvement). netsA must be a's distinct nets.
func (st *refState) swapDelta(a, b int, netsA []int) float64 {
	nets := refUnionNets(netsA, st.cellNets(b))
	before := st.netsHPWL(nets)
	st.x[a], st.x[b] = st.x[b], st.x[a]
	st.y[a], st.y[b] = st.y[b], st.y[a]
	after := st.netsHPWL(nets)
	st.x[a], st.x[b] = st.x[b], st.x[a]
	st.y[a], st.y[b] = st.y[b], st.y[a]
	return after - before
}

// localReorder permutes small windows of segment neighbours, repacking
// each window left-to-right within its original span. Windows are formed
// inside one free segment so compaction can never move a cell onto a
// fixed obstacle.
func (st *refState) localReorder(o Options) {
	d := st.d
	segs := legal.BuildSegments(d)
	// Assign each movable cell to its segment.
	bySeg := make([][]int, len(segs))
	for _, c := range d.MovableCells() {
		lx := st.x[c] - d.CellW[c]/2
		hx := st.x[c] + d.CellW[c]/2
		ly := st.y[c] - d.CellH[c]/2
		for i, sg := range segs {
			if math.Abs(ly-sg.Y) < 1e-6 && lx >= sg.X0-1e-6 && hx <= sg.X1+1e-6 {
				bySeg[i] = append(bySeg[i], c)
				break
			}
		}
	}
	allPerms := permutations(o.WindowSize)
	var perms [][]int
	for _, p := range allPerms {
		if len(p) == o.WindowSize {
			perms = append(perms, p)
		}
	}
	for _, cells := range bySeg {
		if len(cells) < o.WindowSize {
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return st.x[cells[i]] < st.x[cells[j]] })
		for start := 0; start+o.WindowSize <= len(cells); start++ {
			win := cells[start : start+o.WindowSize]
			left := st.x[win[0]] - d.CellW[win[0]]/2
			nets := []int{}
			for _, c := range win {
				nets = refUnionNets(nets, st.cellNets(c))
			}
			baseX := make([]float64, len(win))
			for i, c := range win {
				baseX[i] = st.x[c]
			}
			before := st.netsHPWL(nets)
			bestPerm := -1
			bestVal := before - 1e-9
			for pi, perm := range perms {
				xx := left
				for _, idx := range perm {
					c := win[idx]
					st.x[c] = xx + d.CellW[c]/2
					xx += d.CellW[c]
				}
				if v := st.netsHPWL(nets); v < bestVal {
					bestVal = v
					bestPerm = pi
				}
			}
			if bestPerm >= 0 {
				xx := left
				for _, idx := range perms[bestPerm] {
					c := win[idx]
					st.x[c] = xx + d.CellW[c]/2
					xx += d.CellW[c]
				}
				sort.Slice(win, func(i, j int) bool { return st.x[win[i]] < st.x[win[j]] })
			} else {
				for i, c := range win {
					st.x[c] = baseX[i]
				}
			}
		}
	}
}

// ismPass runs independent-set matching: same-footprint, mutually
// disconnected cells are optimally assigned to the multiset of their
// positions by exact enumeration.
func (st *refState) ismPass(o Options) {
	d := st.d
	// Group by footprint.
	type fp struct{ w, h float64 }
	groups := map[fp][]int{}
	for _, c := range d.MovableCells() {
		groups[fp{d.CellW[c], d.CellH[c]}] = append(groups[fp{d.CellW[c], d.CellH[c]}], c)
	}
	// Groups share nets, so matching one moves the costs the next one sees:
	// visit them in a fixed (w, h) order, not in map order.
	keys := make([]fp, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].w != keys[j].w {
			return keys[i].w < keys[j].w
		}
		return keys[i].h < keys[j].h
	})
	perms := permutations(o.SetSize)
	for _, k := range keys {
		cells := groups[k]
		if len(cells) < 2 {
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return st.x[cells[i]] < st.x[cells[j]] })
		// Build maximal independent sets greedily in x order.
		used := make(map[int]bool)
		for i := 0; i < len(cells); i++ {
			if used[cells[i]] {
				continue
			}
			set := []int{cells[i]}
			setNets := map[int]bool{}
			for _, n := range st.cellNets(cells[i]) {
				setNets[n] = true
			}
			for j := i + 1; j < len(cells) && len(set) < o.SetSize; j++ {
				c := cells[j]
				if used[c] {
					continue
				}
				indep := true
				cn := st.cellNets(c)
				for _, n := range cn {
					if setNets[n] {
						indep = false
						break
					}
				}
				if !indep {
					continue
				}
				set = append(set, c)
				for _, n := range cn {
					setNets[n] = true
				}
			}
			if len(set) < 2 {
				continue
			}
			for _, c := range set {
				used[c] = true
			}
			st.matchSet(set, perms)
		}
	}
}

// matchSet reassigns the cells of an independent set to the multiset of
// their positions, minimizing the sum of their incident nets' HPWL.
// Because members share no nets, each cell's cost depends only on its own
// slot; the optimal assignment over k! permutations (k <= 6) is exact.
func (st *refState) matchSet(set []int, perms [][]int) {
	k := len(set)
	posX := make([]float64, k)
	posY := make([]float64, k)
	for i, c := range set {
		posX[i] = st.x[c]
		posY[i] = st.y[c]
	}
	// cost[i][j]: HPWL of cell set[i]'s nets with the cell at slot j.
	cost := make([][]float64, k)
	for i, c := range set {
		cost[i] = make([]float64, k)
		nets := st.cellNets(c)
		ox, oy := st.x[c], st.y[c]
		for j := 0; j < k; j++ {
			st.x[c], st.y[c] = posX[j], posY[j]
			cost[i][j] = st.netsHPWL(nets)
		}
		st.x[c], st.y[c] = ox, oy
	}
	bestVal := math.Inf(1)
	var best []int
	for _, perm := range perms {
		if len(perm) != k {
			continue
		}
		var v float64
		for i := 0; i < k; i++ {
			v += cost[i][perm[i]]
		}
		if v < bestVal {
			bestVal = v
			best = perm
		}
	}
	// Identity cost for comparison.
	var id float64
	for i := 0; i < k; i++ {
		id += cost[i][i]
	}
	if best == nil || bestVal >= id-1e-12 {
		return
	}
	for i, c := range set {
		st.x[c], st.y[c] = posX[best[i]], posY[best[i]]
	}
}

// TestRunMatchesReference: Run gives the reference placer's positions bit
// for bit. Every option set makes at least two passes, so a cached box
// that goes stale across the moves localReorder and ismPass make between
// global-swap passes shows here.
func TestRunMatchesReference(t *testing.T) {
	type tcase struct {
		name  string
		build func(*testing.T) (*netlist.Design, []float64, []float64)
	}
	var cases []tcase
	for _, seed := range []int64{1, 2, 3} {
		cases = append(cases, tcase{fmt.Sprintf("rows300/seed%d", seed),
			func(t *testing.T) (*netlist.Design, []float64, []float64) { return legalDesign(t, 300, seed) }})
	}
	for _, b := range []struct {
		bench string
		scale float64
	}{{"adaptec1", 0.02}, {"fft_1", 0.035}} {
		// Run is serial, so the race runtime adds no coverage here, only
		// time: its instrumented maps make the reference take ~5 min on
		// adaptec1 alone. The plain build runs every case.
		if raceDetector && b.bench == "adaptec1" {
			continue
		}
		cases = append(cases, tcase{fmt.Sprintf("%s/%v", b.bench, b.scale),
			func(t *testing.T) (*netlist.Design, []float64, []float64) { return gpTetris(t, b.bench, b.scale) }})
	}
	optSets := []Options{{}, {Passes: 3, WindowSize: 6, SetSize: 2, SwapRadius: 4, Seed: 7}}
	for oi, o := range optSets {
		if p := o.withDefaults().Passes; p < 2 {
			t.Fatalf("option set %d makes %d pass", oi, p)
		}
	}
	for _, tc := range cases {
		for oi, o := range optSets {
			t.Run(fmt.Sprintf("%s/opts%d", tc.name, oi), func(t *testing.T) {
				d, lx, ly := tc.build(t)
				x, y := Run(d, lx, ly, o)
				rx, ry := refRun(d, lx, ly, o)
				for c := range x {
					if math.Float64bits(x[c]) != math.Float64bits(rx[c]) || math.Float64bits(y[c]) != math.Float64bits(ry[c]) {
						t.Fatalf("cell %d at (%v, %v), reference (%v, %v)", c, x[c], y[c], rx[c], ry[c])
					}
				}
			})
		}
	}
}
