package powerflow

import (
	"math"

	"gridmind/internal/model"
	"gridmind/internal/sparse"
)

// This file is the package's one Newton-Raphson kernel. One-shot Solve and
// every ViewSolver solve (sweeps, cascades, episodes) run it; only the
// Ybus it reads and the buffers it owns differ between them.
//
// The unknown vector is fixed per network: every non-slack bus carries an
// angle AND a magnitude unknown, and buses that are currently PV are
// pinned by exact identity rows (dVm = 0) with their couplings zeroed. So
// the Jacobian has one dimension, 2·(nb−1), and one compiled pattern, and
// the LU one symbolic analysis, whatever the PV/PQ split — across
// Q-limit rounds, outages and one-shot solves alike. Steady-state
// iterations are a slot-map refill plus Refactorize: no pattern work, no
// symbolic analysis, no allocation.
//
// The identity-row trick is exact, not approximate: a pinned row solves
// dVm_i = 0 identically (its off-row couplings are exact zeros, so no
// rounding enters), and the update loop additionally never applies
// magnitude steps to non-PQ buses.

// fixedState is the split-independent Newton machinery of one network:
// index maps, the compiled augmented Jacobian and its LU, reused by every
// Q-limit round and, on a ViewSolver, by every solve.
type fixedState struct {
	aPos, mPos []int // every non-slack bus has both an angle and a magnitude slot
	isPQ       []bool
	dim        int
	rhs, dx    []float64
	work       []float64
	p, q       []float64
	cs, sn     []float64
	jac        *augJacobian
	lu         *sparse.LU
	colPerm    []int
}

func newFixedState(y *model.Ybus, nb, slack int) *fixedState {
	st := &fixedState{
		aPos: make([]int, nb),
		mPos: make([]int, nb),
		isPQ: make([]bool, nb),
	}
	na := 0
	for i := 0; i < nb; i++ {
		if i == slack {
			st.aPos[i], st.mPos[i] = -1, -1
			continue
		}
		st.aPos[i] = na
		na++
	}
	nm := 0
	for i := 0; i < nb; i++ {
		if i == slack {
			continue
		}
		st.mPos[i] = na + nm
		nm++
	}
	st.dim = na + nm
	if st.dim == 0 {
		return st
	}
	st.rhs = make([]float64, st.dim)
	st.dx = make([]float64, st.dim)
	st.work = make([]float64, st.dim)
	st.p = make([]float64, nb)
	st.q = make([]float64, nb)
	st.cs = make([]float64, nb)
	st.sn = make([]float64, nb)
	st.jac = newAugJacobian(y, st.aPos, st.mPos, st.dim)
	return st
}

// newtonRound iterates Newton to convergence for the current split on the
// fixed augmented state, PV buses pinned by identity rows. y is the
// admittance matrix the state was compiled from (possibly patched in
// place since: patches change values, never the pattern).
func (st *fixedState) newtonRound(y *model.Ybus, c *classification, vm, va []float64, opts Options) (int, float64, bool, error) {
	if st.dim == 0 {
		return 0, 0, true, nil
	}
	for i := range st.isPQ {
		st.isPQ[i] = false
	}
	for _, i := range c.pq {
		st.isPQ[i] = true
	}
	nb := len(st.aPos)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		injectionsInto(y, vm, va, st.cs, st.sn, st.p, st.q)
		maxMis := st.mismatch(c, st.p, st.q)
		if maxMis < opts.Tol {
			return iter - 1, maxMis, true, nil
		}

		st.jac.refill(y, st, vm)
		if st.lu == nil {
			if st.colPerm = lookupOrdering(opts.Reorder, st.dim); st.colPerm == nil {
				st.colPerm = busBlockOrdering(y, st)
				storeOrdering(opts.Reorder, st.dim, st.colPerm)
			}
			lu, err := sparse.Factorize(st.jac.mat, sparse.Options{ColPerm: st.colPerm})
			if err != nil {
				return iter, maxMis, false, err
			}
			st.lu = lu
		} else if err := st.lu.Refactorize(st.jac.mat); err != nil {
			// The frozen pivot order went stale for these values (another
			// outage, split or operating point); re-pivot once and keep the
			// fresh factorization. The column pre-order stays valid.
			lu, err := sparse.Factorize(st.jac.mat, sparse.Options{ColPerm: st.colPerm})
			if err != nil {
				return iter, maxMis, false, err
			}
			st.lu = lu
		}
		if err := st.lu.SolveInto(st.dx, st.rhs, st.work); err != nil {
			return iter, maxMis, false, err
		}
		for i := 0; i < nb; i++ {
			if st.aPos[i] >= 0 {
				va[i] = angleWrap(va[i] + st.dx[st.aPos[i]])
			}
			// Magnitude steps apply only to PQ buses; pinned (PV) rows
			// solved dVm = 0 exactly, and skipping them here keeps even
			// that exactness irrelevant.
			if st.mPos[i] >= 0 && st.isPQ[i] {
				vm[i] += st.dx[st.mPos[i]]
				if vm[i] < 1e-3 {
					vm[i] = 1e-3
				}
			}
		}
	}
	injectionsInto(y, vm, va, st.cs, st.sn, st.p, st.q)
	maxMis := st.mismatch(c, st.p, st.q)
	return opts.MaxIter, maxMis, maxMis < opts.Tol, nil
}

// mismatch writes [ΔP; ΔQ or pin] into rhs and returns the max abs
// mismatch. Pinned (PV) magnitude rows get a zero right-hand side: their
// equation is dVm = 0.
func (st *fixedState) mismatch(c *classification, p, q []float64) float64 {
	var maxMis float64
	for i := range p {
		if st.aPos[i] >= 0 {
			d := c.pSpec[i] - p[i]
			st.rhs[st.aPos[i]] = d
			if a := math.Abs(d); a > maxMis {
				maxMis = a
			}
		}
		if st.mPos[i] >= 0 {
			if st.isPQ[i] {
				d := c.qSpec[i] - q[i]
				st.rhs[st.mPos[i]] = d
				if a := math.Abs(d); a > maxMis {
					maxMis = a
				}
			} else {
				st.rhs[st.mPos[i]] = 0
			}
		}
	}
	return maxMis
}

// augJacobian is the augmented Jacobian: the polar power flow Jacobian
// over all non-slack angle AND magnitude unknowns, with a fixed symbolic
// pattern compiled from the full structural Ybus (zero-valued entries
// included, so rank-1 outage patches never change the pattern). Buses
// currently PV are pinned: their magnitude row is the identity and every
// coupling into or out of their magnitude column is written as exact zero.
type augJacobian struct {
	mat  *sparse.CSC
	slot []int
}

// newAugJacobian compiles the augmented pattern once.
func newAugJacobian(y *model.Ybus, aPos, mPos []int, dim int) *augJacobian {
	ri := make([]int, 0, 4*len(y.NZ))
	ci := make([]int, 0, 4*len(y.NZ))
	emit := func(r, c int) {
		ri = append(ri, r)
		ci = append(ci, c)
	}
	walkAugJacobian(y, func(i int) {
		if aPos[i] >= 0 {
			emit(aPos[i], aPos[i])
			emit(aPos[i], mPos[i])
			emit(mPos[i], aPos[i])
			emit(mPos[i], mPos[i])
		}
	}, func(i, j int, _ complex128) {
		if aPos[i] >= 0 {
			if aPos[j] >= 0 {
				emit(aPos[i], aPos[j])
				emit(mPos[i], aPos[j])
			}
			if mPos[j] >= 0 {
				emit(aPos[i], mPos[j])
				emit(mPos[i], mPos[j])
			}
		}
	})
	mat, slot := sparse.CompilePattern(dim, dim, ri, ci)
	return &augJacobian{mat: mat, slot: slot}
}

// refill recomputes the augmented Jacobian values for the current state
// and PQ membership, writing through the slot map. No allocation, no
// pattern work. st.cs/st.sn must hold cos(va)/sin(va) as filled by
// injectionsInto for the same state.
func (ja *augJacobian) refill(y *model.Ybus, st *fixedState, vm []float64) {
	val := ja.mat.Values()
	k := 0
	put := func(v float64) {
		val[ja.slot[k]] = v
		k++
	}
	p, q, cs, sn, isPQ := st.p, st.q, st.cs, st.sn, st.isPQ
	walkAugJacobian(y, func(i int) {
		if st.aPos[i] < 0 {
			return
		}
		yii := y.Diag(i)
		g, b := real(yii), imag(yii)
		vi := vm[i]
		put(-q[i] - b*vi*vi) // dP_i/dVa_i
		if isPQ[i] {
			put(p[i]/vi + g*vi) // dP_i/dVm_i
			put(p[i] - g*vi*vi) // dQ_i/dVa_i
			put(q[i]/vi - b*vi) // dQ_i/dVm_i
		} else {
			put(0) // pinned column
			put(0) // pinned row
			put(1) // identity: dVm_i = 0
		}
	}, func(i, j int, yij complex128) {
		if st.aPos[i] < 0 {
			return
		}
		g, b := real(yij), imag(yij)
		ct := cs[i]*cs[j] + sn[i]*sn[j]  // cos(va_i − va_j)
		sth := sn[i]*cs[j] - cs[i]*sn[j] // sin(va_i − va_j)
		vij := vm[i] * vm[j]
		if st.aPos[j] >= 0 {
			put(vij * (g*sth - b*ct)) // dP_i/dVa_j
			if isPQ[i] {
				put(-vij * (g*ct + b*sth)) // dQ_i/dVa_j
			} else {
				put(0)
			}
		}
		if st.mPos[j] >= 0 {
			if isPQ[j] {
				put(vm[i] * (g*ct + b*sth)) // dP_i/dVm_j
			} else {
				put(0)
			}
			if isPQ[i] && isPQ[j] {
				put(vm[i] * (g*sth - b*ct)) // dQ_i/dVm_j
			} else {
				put(0)
			}
		}
	})
}

// busBlockOrdering computes the fill-reducing column pre-order of the
// augmented Jacobian at bus granularity: minimum-degree on the non-slack
// bus adjacency graph (half the node count, a quarter of the ordering
// work), each bus then expanded to its angle and magnitude columns
// adjacently. The Jacobian is a 2×2-blocked image of the bus graph, so the
// quotient-graph ordering preserves (often improves) fill quality while
// keeping each bus's variables together.
func busBlockOrdering(y *model.Ybus, st *fixedState) []int {
	na := st.dim / 2
	bg := sparse.NewCOO(na, na)
	for _, nz := range y.NZ {
		i, j := nz[0], nz[1]
		if st.aPos[i] >= 0 && st.aPos[j] >= 0 {
			bg.Add(st.aPos[i], st.aPos[j], 1)
		}
	}
	perm := sparse.MinDegree(bg.ToCSC())
	out := make([]int, 0, st.dim)
	for _, p := range perm {
		// Column layout from newFixedState: angle column of the bus at
		// position p is p, its magnitude column is na+p.
		out = append(out, p, na+p)
	}
	return out
}

// walkAugJacobian drives the shared traversal of the symbolic and numeric
// passes over EVERY structural Ybus nonzero — zero values included, so the
// emission sequence is invariant under in-place Ybus value changes
// (branch-outage patches).
func walkAugJacobian(y *model.Ybus, onDiag func(i int), onOff func(i, j int, yij complex128)) {
	for k, nz := range y.NZ {
		i, j := nz[0], nz[1]
		if i == j {
			onDiag(i)
			continue
		}
		onOff(i, j, y.NZv[k])
	}
}

// injectionsInto evaluates real and reactive nodal injections in p.u. for
// the polar voltage state, iterating only structural nonzeros, overwriting
// p and q (length nb) in place. cs and sn are caller-owned scratch (length
// nb) that receive cos(va)/sin(va); angle differences across entries are
// expanded through the addition identities, so the per-structural-nonzero
// cost is multiplies instead of transcendental calls.
func injectionsInto(y *model.Ybus, vm, va []float64, cs, sn, p, q []float64) {
	for i := range p {
		p[i], q[i] = 0, 0
		cs[i] = math.Cos(va[i])
		sn[i] = math.Sin(va[i])
	}
	for k, nz := range y.NZ {
		yij := y.NZv[k]
		g, b := real(yij), imag(yij)
		if g == 0 && b == 0 {
			continue
		}
		i, j := nz[0], nz[1]
		ct := cs[i]*cs[j] + sn[i]*sn[j] // cos(va_i − va_j)
		st := sn[i]*cs[j] - cs[i]*sn[j] // sin(va_i − va_j)
		vv := vm[i] * vm[j]
		p[i] += vv * (g*ct + b*st)
		q[i] += vv * (g*st - b*ct)
	}
}
