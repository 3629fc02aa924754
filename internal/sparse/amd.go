package sparse

import "sort"

// MinDegree computes a minimum-degree ordering of the symmetrized pattern
// of m (pattern of M + Mᵀ): at each step the uneliminated node of smallest
// degree in the elimination graph is removed and its neighbours are
// connected into a clique. On power-system matrices this typically yields
// ~3x less LU fill than RCM, which translates directly into faster
// factorization, refactorization and triangular solves; it is the default
// ordering of Factorize.
//
// The implementation is the classical dense-elimination-graph variant
// (adjacency sets, linear minimum scan): O(n²) in the worst case, which is
// negligible against factorization time at the system sizes involved and
// is amortized further by the ordering caches upstream. Ties break toward
// the lowest node index, so the ordering is deterministic.
func MinDegree(m *CSC) []int {
	n := m.cols
	if m.rows != n {
		panic("sparse: MinDegree requires a square matrix")
	}
	adjLists := symmetricAdjacency(m)
	adj := make([]map[int]bool, n)
	for v, nbrs := range adjLists {
		adj[v] = make(map[int]bool, len(nbrs)*2)
		for _, w := range nbrs {
			adj[v][w] = true
		}
	}

	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	nbrs := make([]int, 0, 64)
	for len(perm) < n {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !eliminated[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		perm = append(perm, best)
		eliminated[best] = true
		nbrs = nbrs[:0]
		for w := range adj[best] {
			nbrs = append(nbrs, w)
			delete(adj[w], best)
		}
		adj[best] = nil
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				adj[nbrs[a]][nbrs[b]] = true
				adj[nbrs[b]][nbrs[a]] = true
			}
		}
	}
	return perm
}

// symmetricAdjacency builds the adjacency lists of the undirected graph of
// M + Mᵀ, excluding self loops.
func symmetricAdjacency(m *CSC) [][]int {
	n := m.cols
	adj := make([][]int, n)
	add := func(a, b int) {
		if a != b {
			adj[a] = append(adj[a], b)
		}
	}
	for j := 0; j < n; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			i := m.rowIdx[p]
			add(i, j)
			add(j, i)
		}
	}
	// Deduplicate.
	for v := range adj {
		sort.Ints(adj[v])
		out := adj[v][:0]
		prev := -1
		for _, w := range adj[v] {
			if w != prev {
				out = append(out, w)
				prev = w
			}
		}
		adj[v] = out
	}
	return adj
}

// InvertPerm returns the inverse permutation: inv[perm[k]] = k.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for k, v := range perm {
		inv[v] = k
	}
	return inv
}
