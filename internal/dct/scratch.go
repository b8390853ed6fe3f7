package dct

import "xplace/internal/kernel"

// lineScratch is one chunk's private scratch for the line passes of a plan:
// what a row kernel transforms a row in, and what a column kernel
// transforms a block of columns in.
type lineScratch struct {
	fft     []complex128 // packed FFT buffer of the row kernels: nx/2
	rowReal []float64    // scaled-coefficient row of the field rows pass: nx
	// Float64 staging rows of the float32 plan's row kernels (nil on the
	// float64 plan): nx each.
	rowIn, rowOut []float64
	block         []complex128 // packed spectra of a column block: colW*ny/2
}

// planScratch is the arena-backed working memory both plans share the
// lifecycle of: the grid-sized intermediates, of the plan's element type T,
// and one lineScratch per chunk.
type planScratch[T float32 | float64] struct {
	tmp   []T // nx*ny intermediate (rows pass output)
	tmp2  []T // second intermediate of the batched field evaluation
	lines []lineScratch
}

// grow checks the scratch out of e's arena until there is a record for
// each chunk either pass of an nx x ny plan runs as on e; field adds the
// batched field evaluation's second intermediate. Nothing is checked out
// once the scratch is there, which keeps steady-state transforms
// allocation-free. Called with the plan's mutex held.
func (s *planScratch[T]) grow(e *kernel.Engine, nx, ny int, field bool) {
	if s.tmp == nil {
		s.tmp = allocGrid[T](e, nx*ny)
	}
	if field && s.tmp2 == nil {
		s.tmp2 = allocGrid[T](e, nx*ny)
	}
	chunks := max(e.LineChunks(ny, nx), e.LineChunks(nx, ny))
	for len(s.lines) < chunks {
		ls := lineScratch{
			fft:     e.AllocComplex(max(nx/2, 1)),
			rowReal: e.Alloc(nx),
			block:   e.AllocComplex(colW * max(ny/2, 1)),
		}
		if _, staged := any(s.tmp).([]float32); staged {
			ls.rowIn, ls.rowOut = e.Alloc(nx), e.Alloc(nx)
		}
		s.lines = append(s.lines, ls)
	}
}

// free returns every buffer to e's arena and drops the references.
// Idempotent.
func (s *planScratch[T]) free(e *kernel.Engine) {
	freeGrid(e, s.tmp)
	freeGrid(e, s.tmp2)
	for _, ls := range s.lines {
		e.FreeComplex(ls.fft)
		e.FreeComplex(ls.block)
		for _, b := range [...][]float64{ls.rowReal, ls.rowIn, ls.rowOut} {
			e.Free(b)
		}
	}
	*s = planScratch[T]{}
}

// allocGrid checks a grid-sized []T out of e's arena.
func allocGrid[T float32 | float64](e *kernel.Engine, n int) []T {
	var buf any
	if _, f32 := any(T(0)).(float32); f32 {
		buf = e.Alloc32(n)
	} else {
		buf = e.Alloc(n)
	}
	return buf.([]T)
}

// freeGrid returns a buffer of allocGrid to e's arena.
func freeGrid[T float32 | float64](e *kernel.Engine, buf []T) {
	switch b := any(buf).(type) {
	case []float32:
		e.Free32(b)
	case []float64:
		e.Free(b)
	}
}
