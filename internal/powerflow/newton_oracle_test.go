package powerflow

import (
	"math"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// The reduced-dimension Newton-Raphson kernel, kept as an independent
// oracle for the production augmented kernel (newton.go). It eliminates
// the PV magnitude unknowns instead of pinning them, compiles its own
// Jacobian pattern and orders it with plain minimum degree, so it shares
// nothing with the kernel under test beyond the injection evaluation.
// referenceSolve wraps it in the PV→PQ outer loop the one-shot solver ran
// before both paths were unified; TestSolveMatchesReducedNewtonOracle and
// TestViewSolverMatchesCloneSolve pin production against it.

// referenceSolve is the oracle's one-shot Newton power flow.
func referenceSolve(n *model.Network, opts Options) (*Result, error) {
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 30
	}
	c, err := classify(n)
	if err != nil {
		return nil, err
	}
	y := model.BuildYbus(n)
	vm, va := startVoltages(n, opts)

	res := &Result{Algorithm: NewtonRaphson}
	qScratch := newQSwitchScratch(len(n.Buses))
	const maxQRounds = 6
	for round := 0; ; round++ {
		iter, mis, conv, err := newtonInner(n, y, c, vm, va, opts)
		res.Iterations += iter
		res.MaxMismatch = mis
		res.Converged = conv
		if err != nil {
			return res, err
		}
		if !conv {
			finishResult(n, y, c, vm, va, res, newResultScratch(n))
			return res, ErrNotConverged
		}
		if !opts.EnforceQLimits || round >= maxQRounds {
			break
		}
		if !switchPVtoPQ(y, c, vm, va, qScratch) {
			break
		}
	}
	finishResult(n, y, c, vm, va, res, newResultScratch(n))
	return res, nil
}

// newtonInner runs full Newton-Raphson iterations for a fixed PV/PQ split.
// The unknown vector is [Va at non-slack buses; Vm at PQ buses].
//
// The Jacobian sparsity pattern is fixed by the Ybus structural nonzeros,
// so the symbolic CSC is compiled once per solve and only its values are
// refilled in place each iteration; the LU likewise keeps its symbolic
// analysis (fill pattern, pivot order) from the first iteration and only
// refactorizes numerically afterwards. Steady-state iterations therefore
// perform no pattern construction and no per-iteration allocation.
func newtonInner(n *model.Network, y *model.Ybus, c *classification, vm, va []float64, opts Options) (int, float64, bool, error) {
	nb := len(n.Buses)
	// Index maps: bus -> position in the angle block / magnitude block.
	aPos := make([]int, nb)
	mPos := make([]int, nb)
	for i := range aPos {
		aPos[i], mPos[i] = -1, -1
	}
	na := 0
	for i := 0; i < nb; i++ {
		if i != c.slack {
			aPos[i] = na
			na++
		}
	}
	nm := 0
	for _, i := range c.pq {
		mPos[i] = na + nm
		nm++
	}
	dim := na + nm
	if dim == 0 {
		return 0, 0, true, nil
	}

	isPQ := make([]bool, nb)
	for _, i := range c.pq {
		isPQ[i] = true
	}

	rhs := make([]float64, dim)
	dx := make([]float64, dim)
	work := make([]float64, dim)
	p := make([]float64, nb)
	q := make([]float64, nb)
	cs := make([]float64, nb)
	sn := make([]float64, nb)
	jac := newJacobian(y, aPos, mPos, dim)
	var lu *sparse.LU
	var colPerm []int
	for iter := 1; iter <= opts.MaxIter; iter++ {
		injectionsInto(y, vm, va, cs, sn, p, q)
		maxMis := mismatchInto(c, isPQ, aPos, mPos, p, q, rhs)
		if maxMis < opts.Tol {
			return iter - 1, maxMis, true, nil
		}

		jac.refill(y, aPos, mPos, vm, cs, sn, p, q)
		if lu == nil {
			if colPerm = lookupOrdering(opts.Reorder, dim); colPerm == nil {
				colPerm = sparse.MinDegree(jac.mat)
				storeOrdering(opts.Reorder, dim, colPerm)
			}
			var err error
			if lu, err = sparse.Factorize(jac.mat, sparse.Options{ColPerm: colPerm}); err != nil {
				return iter, maxMis, false, err
			}
		} else if err := lu.Refactorize(jac.mat); err != nil {
			// Frozen pivot order hit a zero pivot; redo the factorization
			// with fresh row pivoting. The column pre-order stays valid —
			// only the pivot choices went stale.
			if lu, err = sparse.Factorize(jac.mat, sparse.Options{ColPerm: colPerm}); err != nil {
				return iter, maxMis, false, err
			}
		}
		if err := lu.SolveInto(dx, rhs, work); err != nil {
			return iter, maxMis, false, err
		}
		for i := 0; i < nb; i++ {
			if aPos[i] >= 0 {
				va[i] = angleWrap(va[i] + dx[aPos[i]])
			}
			if mPos[i] >= 0 {
				vm[i] += dx[mPos[i]]
				if vm[i] < 1e-3 {
					vm[i] = 1e-3 // keep magnitudes physical during iteration
				}
			}
		}
	}
	injectionsInto(y, vm, va, cs, sn, p, q)
	maxMis := mismatchInto(c, isPQ, aPos, mPos, p, q, rhs)
	return opts.MaxIter, maxMis, maxMis < opts.Tol, nil
}

// injections evaluates real and reactive nodal injections in p.u. for the
// polar voltage state, iterating only structural nonzeros.
func injections(y *model.Ybus, vm, va []float64) (p, q []float64) {
	p = make([]float64, y.N)
	q = make([]float64, y.N)
	cs := make([]float64, y.N)
	sn := make([]float64, y.N)
	injectionsInto(y, vm, va, cs, sn, p, q)
	return p, q
}

// mismatchInto writes [ΔP; ΔQ] into rhs and returns the max abs mismatch.
func mismatchInto(c *classification, isPQ []bool, aPos, mPos []int, p, q, rhs []float64) float64 {
	var maxMis float64
	for i := range p {
		if aPos[i] >= 0 {
			d := c.pSpec[i] - p[i]
			rhs[aPos[i]] = d
			if a := math.Abs(d); a > maxMis {
				maxMis = a
			}
		}
		if mPos[i] >= 0 {
			d := c.qSpec[i] - q[i]
			rhs[mPos[i]] = d
			if a := math.Abs(d); a > maxMis {
				maxMis = a
			}
		}
	}
	return maxMis
}

// jacobian is the polar power flow Jacobian
//
//	[ dP/dVa  dP/dVm ]
//	[ dQ/dVa  dQ/dVm ]
//
// restricted to non-slack angles and PQ magnitudes, with a fixed symbolic
// pattern compiled from the Ybus structural nonzeros. refill overwrites
// mat's values in place; the emission order of the symbolic and numeric
// walks must stay identical (each Ybus nonzero maps to a unique set of
// Jacobian coordinates, so the slot map is a bijection).
type jacobian struct {
	mat  *sparse.CSC
	slot []int
}

// newJacobian compiles the symbolic pattern once for the given PV/PQ split.
func newJacobian(y *model.Ybus, aPos, mPos []int, dim int) *jacobian {
	ri := make([]int, 0, 4*len(y.NZ))
	ci := make([]int, 0, 4*len(y.NZ))
	emit := func(r, c int) {
		ri = append(ri, r)
		ci = append(ci, c)
	}
	walkJacobian(y, aPos, mPos, func(i int) {
		if aPos[i] >= 0 {
			emit(aPos[i], aPos[i])
			if mPos[i] >= 0 {
				emit(aPos[i], mPos[i])
			}
		}
		if mPos[i] >= 0 {
			if aPos[i] >= 0 {
				emit(mPos[i], aPos[i])
			}
			emit(mPos[i], mPos[i])
		}
	}, func(i, j int, _ complex128) {
		if aPos[i] >= 0 {
			if aPos[j] >= 0 {
				emit(aPos[i], aPos[j])
			}
			if mPos[j] >= 0 {
				emit(aPos[i], mPos[j])
			}
		}
		if mPos[i] >= 0 {
			if aPos[j] >= 0 {
				emit(mPos[i], aPos[j])
			}
			if mPos[j] >= 0 {
				emit(mPos[i], mPos[j])
			}
		}
	})
	mat, slot := sparse.CompilePattern(dim, dim, ri, ci)
	return &jacobian{mat: mat, slot: slot}
}

// refill recomputes the Jacobian values at the current state, writing
// through the slot map. No allocation, no pattern work. cs and sn hold
// cos(va)/sin(va) as filled by injectionsInto for the same state.
func (ja *jacobian) refill(y *model.Ybus, aPos, mPos []int, vm, cs, sn, p, q []float64) {
	val := ja.mat.Values()
	k := 0
	put := func(v float64) {
		val[ja.slot[k]] = v
		k++
	}
	walkJacobian(y, aPos, mPos, func(i int) {
		yii := y.Diag(i)
		g, b := real(yii), imag(yii)
		vi := vm[i]
		if aPos[i] >= 0 {
			put(-q[i] - b*vi*vi) // dP_i/dVa_i
			if mPos[i] >= 0 {
				put(p[i]/vi + g*vi) // dP_i/dVm_i
			}
		}
		if mPos[i] >= 0 {
			if aPos[i] >= 0 {
				put(p[i] - g*vi*vi) // dQ_i/dVa_i
			}
			put(q[i]/vi - b*vi) // dQ_i/dVm_i
		}
	}, func(i, j int, yij complex128) {
		g, b := real(yij), imag(yij)
		ct := cs[i]*cs[j] + sn[i]*sn[j] // cos(va_i − va_j)
		st := sn[i]*cs[j] - cs[i]*sn[j] // sin(va_i − va_j)
		vij := vm[i] * vm[j]
		dPdA := vij * (g*st - b*ct)   // dP_i/dVa_j
		dPdM := vm[i] * (g*ct + b*st) // dP_i/dVm_j
		dQdA := -vij * (g*ct + b*st)  // dQ_i/dVa_j
		dQdM := vm[i] * (g*st - b*ct) // dQ_i/dVm_j
		if aPos[i] >= 0 {
			if aPos[j] >= 0 {
				put(dPdA)
			}
			if mPos[j] >= 0 {
				put(dPdM)
			}
		}
		if mPos[i] >= 0 {
			if aPos[j] >= 0 {
				put(dQdA)
			}
			if mPos[j] >= 0 {
				put(dQdM)
			}
		}
	})
}

// walkJacobian drives the shared traversal order of the symbolic and
// numeric passes: every Ybus structural nonzero in storage order, diagonal
// entries via onDiag, off-diagonals with exactly-zero admittance skipped
// (their four partials are identically zero for the whole solve, since the
// Ybus values are fixed while the pattern is in use).
func walkJacobian(y *model.Ybus, aPos, mPos []int, onDiag func(i int), onOff func(i, j int, yij complex128)) {
	for k, nz := range y.NZ {
		i, j := nz[0], nz[1]
		if i == j {
			onDiag(i)
			continue
		}
		if y.NZv[k] == 0 {
			continue
		}
		onOff(i, j, y.NZv[k])
	}
}
