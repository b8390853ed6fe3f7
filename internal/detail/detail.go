// Package detail implements detailed placement: HPWL refinement of a
// legal placement that preserves legality, standing in for the
// NTUPlace3 / ABCDPlace detailed placers the paper's flow invokes. Three
// standard moves are applied in passes:
//
//   - Global swap: exchange same-footprint cells when the wirelength of
//     their incident nets improves (the ABCDPlace global-swap kernel).
//   - Local reordering: exhaustively permute small windows of row
//     neighbours (k! orders, k small).
//   - Independent-set matching (ISM): groups of mutually disconnected
//     same-footprint cells are optimally reassigned to their position
//     multiset by exact small-case assignment.
//
// All moves exchange positions between identical footprints or repack a
// window into its own span, so a legal input stays legal.
package detail

import (
	"math"
	"math/rand"
	"sort"

	"xplace/internal/legal"
	"xplace/internal/netlist"
)

// Options tunes the detailed placer.
type Options struct {
	// Passes over the whole design (default 2).
	Passes int
	// WindowSize is the local-reordering window (default 3, max 6).
	WindowSize int
	// SetSize is the ISM independent-set size (default 5, max 6: the
	// assignment is solved by exact enumeration).
	SetSize int
	// SwapRadius is the neighbourhood radius for global swap in multiples
	// of the average cell height (default 10).
	SwapRadius float64
	// Seed drives tie-breaking and traversal order.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Passes == 0 {
		o.Passes = 2
	}
	if o.WindowSize == 0 {
		o.WindowSize = 3
	}
	if o.WindowSize > 6 {
		o.WindowSize = 6
	}
	if o.SetSize == 0 {
		o.SetSize = 5
	}
	if o.SetSize > 6 {
		o.SetSize = 6
	}
	if o.SwapRadius == 0 {
		o.SwapRadius = 10
	}
	return o
}

// box is an axis-aligned bounding box; the empty box has lo > hi.
type box struct{ lx, hx, ly, hy float64 }

var emptyBox = box{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}

// add grows b to hold the point (px, py). Compares, not math.Min/Max: the
// two are exact either way, and these inline.
func (b *box) add(px, py float64) {
	if px < b.lx {
		b.lx = px
	}
	if px > b.hx {
		b.hx = px
	}
	if py < b.ly {
		b.ly = py
	}
	if py > b.hy {
		b.hy = py
	}
}

// hpwl is the half perimeter of a non-empty box.
func (b box) hpwl() float64 { return (b.hx - b.lx) + (b.hy - b.ly) }

// idSet is a set of small integer ids stamped with an epoch, so that
// clearing it is one increment and its storage is reused.
type idSet struct {
	stamp []uint32
	epoch uint32
}

func newIDSet(n int) idSet { return idSet{stamp: make([]uint32, n), epoch: 1} }

func (s *idSet) clear() {
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps could alias the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

func (s *idSet) has(i int) bool { return s.stamp[i] == s.epoch }

// add inserts i and reports whether it was absent.
func (s *idSet) add(i int) bool {
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	return true
}

// state carries the mutable placement during refinement and the tables
// one Run builds once and every move reads.
type state struct {
	d    *netlist.Design
	x, y []float64

	// The cell→net table: cell c's distinct nets, in first-pin order, are
	// slotNet[slotStart[c]:slotStart[c+1]]. A slot is one (cell, net) pair;
	// slotOff[k] bounds the pin offsets of the cell on that net.
	slotStart []int
	slotNet   []int
	slotOff   []box

	// Global-swap caches, current while a global-swap pass runs. hp[n] is
	// net n's HPWL. excl[k] is slot k's exclusion box: the pin box of its
	// net without the slot cell's pins, valid while exclVer[k] ==
	// netVer[net]. netVer is bumped whenever a cell on the net may have
	// moved.
	hp      []float64
	excl    []box
	exclVer []uint32
	netVer  []uint32

	// Reused sets. inA and inB hold the nets of the two cells a swap
	// scores; netSeen is the dedup set of a net union or an ISM set;
	// cellUsed marks the cells ISM has placed in a set.
	inA, inB, netSeen idSet
	cellUsed          idSet
}

// newState copies the positions and builds the cell→net table.
func newState(d *netlist.Design, x, y []float64) *state {
	nc, nn := d.NumCells(), d.NumNets()
	st := &state{
		d:         d,
		x:         append([]float64(nil), x...),
		y:         append([]float64(nil), y...),
		slotStart: make([]int, nc+1),
		hp:        make([]float64, nn),
		netVer:    make([]uint32, nn),
		inA:       newIDSet(nn),
		inB:       newIDSet(nn),
		netSeen:   newIDSet(nn),
		cellUsed:  newIDSet(nc),
	}
	slotOf := make([]int, nn)
	for c := 0; c < nc; c++ {
		st.netSeen.clear()
		for _, p := range d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]] {
			n := d.PinNet[p]
			if st.netSeen.add(n) {
				slotOf[n] = len(st.slotNet)
				st.slotNet = append(st.slotNet, n)
				st.slotOff = append(st.slotOff, emptyBox)
			}
			st.slotOff[slotOf[n]].add(d.PinOffX[p], d.PinOffY[p])
		}
		st.slotStart[c+1] = len(st.slotNet)
	}
	st.excl = make([]box, len(st.slotNet))
	st.exclVer = make([]uint32, len(st.slotNet))
	for n := range st.netVer {
		st.netVer[n] = 1 // no box is cached yet (exclVer 0)
	}
	return st
}

// cellNets returns the distinct nets touching cell c, in first-pin order.
func (st *state) cellNets(c int) []int {
	return st.slotNet[st.slotStart[c]:st.slotStart[c+1]]
}

// netHPWL computes one net's HPWL under the current state.
func (st *state) netHPWL(n int) float64 {
	d := st.d
	s, e := d.NetPinStart[n], d.NetPinStart[n+1]
	if e-s < 2 {
		return 0
	}
	b := emptyBox
	for p := s; p < e; p++ {
		c := d.PinCell[p]
		b.add(st.x[c]+d.PinOffX[p], st.y[c]+d.PinOffY[p])
	}
	return b.hpwl()
}

// netsHPWL sums the HPWL of a net id set.
func (st *state) netsHPWL(nets []int) float64 {
	var s float64
	for _, n := range nets {
		s += st.netHPWL(n)
	}
	return s
}

// Run refines a legal placement and returns improved positions. The input
// slices are not modified.
func Run(d *netlist.Design, x, y []float64, opts Options) ([]float64, []float64) {
	o := opts.withDefaults()
	st := newState(d, x, y)
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
func (st *state) globalSwap(o Options, rng *rand.Rand) {
	d := st.d
	movable := d.MovableCells()
	if len(movable) < 2 {
		return
	}
	// Cells moved since the last pass: every cached box is suspect.
	for n := range st.netVer {
		st.netVer[n]++
		st.hp[n] = st.netHPWL(n)
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
		st.inA.clear()
		for _, n := range nets {
			st.inA.add(n)
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
					delta := st.swapDelta(c, cand)
					if delta < bestDelta {
						bestDelta = delta
						bestCand = cand
					}
				}
			}
		}
		if bestCand >= 0 {
			st.swap(c, bestCand)
			st.moved(c)
			st.moved(bestCand)
		}
	}
}

// swap exchanges the positions of cells a and b.
func (st *state) swap(a, b int) {
	st.x[a], st.x[b] = st.x[b], st.x[a]
	st.y[a], st.y[b] = st.y[b], st.y[a]
}

// moved refreshes the HPWL cache and invalidates the exclusion boxes of
// the nets of a cell that has just moved.
func (st *state) moved(c int) {
	for _, n := range st.cellNets(c) {
		st.hp[n] = st.netHPWL(n)
		st.netVer[n]++
	}
}

// swapDelta returns the HPWL change of swapping cells a and b (negative
// is an improvement). st.inA must hold a's nets. The nets are summed in
// the order a's nets, then b's nets not on a: before from the HPWL cache,
// after from each net's exclusion box with the moved cell folded in at its
// new position, or by a full pin walk over the swapped positions for a
// net on both cells. Min and max are exact, so either way gives the bits
// of that walk.
func (st *state) swapDelta(a, b int) float64 {
	st.inB.clear()
	for _, n := range st.cellNets(b) {
		st.inB.add(n)
	}
	var before, after float64
	for k := st.slotStart[a]; k < st.slotStart[a+1]; k++ {
		n := st.slotNet[k]
		before += st.hp[n]
		if st.inB.has(n) {
			st.swap(a, b) // no exclusion box is read while swapped
			after += st.netHPWL(n)
			st.swap(a, b)
		} else {
			after += st.movedHPWL(k, a, st.x[b], st.y[b])
		}
	}
	for k := st.slotStart[b]; k < st.slotStart[b+1]; k++ {
		n := st.slotNet[k]
		if st.inA.has(n) {
			continue
		}
		before += st.hp[n]
		after += st.movedHPWL(k, b, st.x[a], st.y[a])
	}
	return after - before
}

// movedHPWL is the HPWL of slot k's net with the slot cell c at (cx, cy)
// and every other cell where it is. A single-pin net folds to a point:
// HPWL 0, as netHPWL gives it.
func (st *state) movedHPWL(k, c int, cx, cy float64) float64 {
	b := st.exclBox(k, c)
	off := st.slotOff[k]
	b.add(cx+off.lx, cy+off.ly)
	b.add(cx+off.hx, cy+off.hy)
	return b.hpwl()
}

// exclBox returns slot k's exclusion box, rebuilding it if a cell on its
// net may have moved since it was cached.
func (st *state) exclBox(k, c int) box {
	n := st.slotNet[k]
	if st.exclVer[k] == st.netVer[n] {
		return st.excl[k]
	}
	d := st.d
	b := emptyBox
	for p := d.NetPinStart[n]; p < d.NetPinStart[n+1]; p++ {
		if cc := d.PinCell[p]; cc != c {
			b.add(st.x[cc]+d.PinOffX[p], st.y[cc]+d.PinOffY[p])
		}
	}
	st.excl[k], st.exclVer[k] = b, st.netVer[n]
	return b
}

// localReorder permutes small windows of segment neighbours, repacking
// each window left-to-right within its original span. Windows are formed
// inside one free segment so compaction can never move a cell onto a
// fixed obstacle.
func (st *state) localReorder(o Options) {
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
	baseX := make([]float64, o.WindowSize)
	var nets []int
	for _, cells := range bySeg {
		if len(cells) < o.WindowSize {
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return st.x[cells[i]] < st.x[cells[j]] })
		for start := 0; start+o.WindowSize <= len(cells); start++ {
			win := cells[start : start+o.WindowSize]
			left := st.x[win[0]] - d.CellW[win[0]]/2
			nets = nets[:0]
			st.netSeen.clear()
			for _, c := range win {
				for _, n := range st.cellNets(c) {
					if st.netSeen.add(n) {
						nets = append(nets, n)
					}
				}
			}
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
func (st *state) ismPass(o Options) {
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
	var set []int
	for _, k := range keys {
		cells := groups[k]
		if len(cells) < 2 {
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return st.x[cells[i]] < st.x[cells[j]] })
		// Build maximal independent sets greedily in x order.
		used := &st.cellUsed
		used.clear()
		for i := 0; i < len(cells); i++ {
			if used.has(cells[i]) {
				continue
			}
			set = append(set[:0], cells[i])
			setNets := &st.netSeen
			setNets.clear()
			for _, n := range st.cellNets(cells[i]) {
				setNets.add(n)
			}
			for j := i + 1; j < len(cells) && len(set) < o.SetSize; j++ {
				c := cells[j]
				if used.has(c) {
					continue
				}
				indep := true
				cn := st.cellNets(c)
				for _, n := range cn {
					if setNets.has(n) {
						indep = false
						break
					}
				}
				if !indep {
					continue
				}
				set = append(set, c)
				for _, n := range cn {
					setNets.add(n)
				}
			}
			if len(set) < 2 {
				continue
			}
			for _, c := range set {
				used.add(c)
			}
			st.matchSet(set, perms)
		}
	}
}

// matchSet reassigns the cells of an independent set to the multiset of
// their positions, minimizing the sum of their incident nets' HPWL.
// Because members share no nets, each cell's cost depends only on its own
// slot; the optimal assignment over k! permutations (k <= 6) is exact.
func (st *state) matchSet(set []int, perms [][]int) {
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

// permutations returns all permutations of 0..k-1 for every length 2..k
// (the length-k ones are used directly; shorter sets filter by length).
func permutations(k int) [][]int {
	var out [][]int
	var gen func(prefix []int, rest []int)
	gen = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			nr := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			gen(append(prefix, rest[i]), nr)
		}
	}
	for n := 2; n <= k; n++ {
		base := make([]int, n)
		for i := range base {
			base[i] = i
		}
		gen(nil, base)
	}
	return out
}
