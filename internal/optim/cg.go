package optim

import (
	"math"

	"xplace/internal/kernel"
)

// QuadSystem is a sparse symmetric positive-semidefinite quadratic model
// of one placement axis, min 1/2 x'Ax - b'x: a per-cell diagonal plus
// symmetric off-diagonal couplings in CSR form. It is the net-model
// least-squares system of the LB/UB alternation strategy — B2B edges and
// anchor pseudo-nets both lower to AddEdge/AddAnchor calls on the
// builder — but carries no placement semantics itself.
type QuadSystem struct {
	N    int
	Diag []float64
	B    []float64
	// Off-diagonal CSR. An edge (i,j) of weight w contributes A_ij = -w
	// and is stored twice (once per row) so matvec is row-parallel.
	RowStart []int32
	Col      []int32
	OffW     []float64
}

// QuadBuilder accumulates edges and anchors and assembles a QuadSystem.
// All scratch is reused across Build calls, so a per-step rebuild (the
// B2B model re-selects its edges every solve) settles to zero steady
// allocations once the edge count peaks.
type QuadBuilder struct {
	n       int
	diag, b []float64
	edgeI   []int32
	edgeJ   []int32
	edgeW   []float64
	edgeD   []float64
	sys     QuadSystem
	rowFill []int32
}

// Reset prepares the builder for a system over n variables.
func (qb *QuadBuilder) Reset(n int) {
	qb.n = n
	if cap(qb.diag) < n {
		qb.diag = make([]float64, n)
		qb.b = make([]float64, n)
	}
	qb.diag = qb.diag[:n]
	qb.b = qb.b[:n]
	for i := range qb.diag {
		qb.diag[i] = 0
		qb.b[i] = 0
	}
	qb.edgeI = qb.edgeI[:0]
	qb.edgeJ = qb.edgeJ[:0]
	qb.edgeW = qb.edgeW[:0]
	qb.edgeD = qb.edgeD[:0]
}

// AddEdge adds the quadratic term w*(x_i - x_j + delta)^2 / 2 between two
// free variables (delta is the constant pin-offset difference o_i - o_j).
func (qb *QuadBuilder) AddEdge(i, j int, w, delta float64) {
	qb.edgeI = append(qb.edgeI, int32(i))
	qb.edgeJ = append(qb.edgeJ, int32(j))
	qb.edgeW = append(qb.edgeW, w)
	qb.edgeD = append(qb.edgeD, delta)
}

// AddAnchor adds the term w*(x_i - target)^2 / 2: a spring from variable i
// to a constant (a fixed pin, or an LB/UB anchor pseudo-net).
func (qb *QuadBuilder) AddAnchor(i int, w, target float64) {
	qb.diag[i] += w
	qb.b[i] += w * target
}

// Build assembles the CSR system. Variables that accumulated no weight at
// all (isolated cells before any anchor activates) are pinned at ref so
// the system stays positive definite and they simply do not move.
func (qb *QuadBuilder) Build(ref []float64) *QuadSystem {
	n := qb.n
	s := &qb.sys
	s.N = n
	if cap(s.Diag) < n {
		s.Diag = make([]float64, n)
		s.B = make([]float64, n)
		s.RowStart = make([]int32, n+1)
	}
	s.Diag = s.Diag[:n]
	s.B = s.B[:n]
	s.RowStart = s.RowStart[:n+1]
	copy(s.Diag, qb.diag)
	copy(s.B, qb.b)

	// Edge contributions to diagonal and RHS; per-row counts for CSR.
	for i := range s.RowStart {
		s.RowStart[i] = 0
	}
	for k := range qb.edgeI {
		i, j, w, d := qb.edgeI[k], qb.edgeJ[k], qb.edgeW[k], qb.edgeD[k]
		s.Diag[i] += w
		s.Diag[j] += w
		s.B[i] -= w * d
		s.B[j] += w * d
		s.RowStart[i+1]++
		s.RowStart[j+1]++
	}
	for i := 0; i < n; i++ {
		s.RowStart[i+1] += s.RowStart[i]
	}
	nnz := int(s.RowStart[n])
	if cap(s.Col) < nnz {
		s.Col = make([]int32, nnz)
		s.OffW = make([]float64, nnz)
	}
	s.Col = s.Col[:nnz]
	s.OffW = s.OffW[:nnz]
	if cap(qb.rowFill) < n {
		qb.rowFill = make([]int32, n)
	}
	qb.rowFill = qb.rowFill[:n]
	copy(qb.rowFill, s.RowStart[:n])
	for k := range qb.edgeI {
		i, j, w := qb.edgeI[k], qb.edgeJ[k], qb.edgeW[k]
		s.Col[qb.rowFill[i]] = j
		s.OffW[qb.rowFill[i]] = w
		qb.rowFill[i]++
		s.Col[qb.rowFill[j]] = i
		s.OffW[qb.rowFill[j]] = w
		qb.rowFill[j]++
	}

	for i := 0; i < n; i++ {
		if s.Diag[i] <= 0 {
			s.Diag[i] = 1
			s.B[i] = ref[i]
		}
	}
	return s
}

// CG is a Jacobi-preconditioned conjugate-gradient solver over a
// QuadSystem. The matvec and the axpy updates run as engine launches and
// the dot products as engine reductions, so solves show up in the launch
// stats and inherit the fixed-worker chunk boundaries that make
// floating-point summation order — and therefore the whole LB trajectory —
// bit-identical run to run.
type CG struct {
	r, z, p, q []float64
}

// Solve minimizes the system starting from (and writing back into) x,
// stopping when the preconditioned residual norm falls below tol relative
// to its initial value or after maxIter iterations. Returns the number of
// iterations taken.
func (cg *CG) Solve(e *kernel.Engine, s *QuadSystem, x []float64, maxIter int, tol float64) int {
	n := s.N
	if n == 0 {
		return 0
	}
	if cap(cg.r) < n {
		cg.r = make([]float64, n)
		cg.z = make([]float64, n)
		cg.p = make([]float64, n)
		cg.q = make([]float64, n)
	}
	r, z, p, q := cg.r[:n], cg.z[:n], cg.p[:n], cg.q[:n]

	matvec := func(src, dst []float64) {
		e.Launch("optim.cg_matvec", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := s.Diag[i] * src[i]
				for k := s.RowStart[i]; k < s.RowStart[i+1]; k++ {
					v -= s.OffW[k] * src[s.Col[k]]
				}
				dst[i] = v
			}
		})
	}

	matvec(x, q)
	// r = b - Ax, z = r/diag, p = z; rz = r'z in one fused pass.
	rz := e.ParallelReduce("optim.cg_init", n, 0, func(lo, hi int) float64 {
		var sum float64
		for i := lo; i < hi; i++ {
			r[i] = s.B[i] - q[i]
			z[i] = r[i] / s.Diag[i]
			p[i] = z[i]
			sum += r[i] * z[i]
		}
		return sum
	}, addFloat)
	rz0 := rz
	if rz0 <= 0 || math.IsNaN(rz0) || math.IsInf(rz0, 0) {
		return 0
	}
	stop := tol * tol * rz0

	var it int
	for it = 0; it < maxIter; it++ {
		if rz <= stop {
			break
		}
		matvec(p, q)
		pq := e.ParallelReduce("optim.cg_dot", n, 0, func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				sum += p[i] * q[i]
			}
			return sum
		}, addFloat)
		if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
			break // lost positive-definiteness numerically; keep current x
		}
		alpha := rz / pq
		// x += alpha p, r -= alpha q, z = r/diag; rzNew fused in.
		rzNew := e.ParallelReduce("optim.cg_update", n, 0, func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * q[i]
				z[i] = r[i] / s.Diag[i]
				sum += r[i] * z[i]
			}
			return sum
		}, addFloat)
		if math.IsNaN(rzNew) || math.IsInf(rzNew, 0) {
			break
		}
		beta := rzNew / rz
		rz = rzNew
		e.Launch("optim.cg_direction", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	return it
}
