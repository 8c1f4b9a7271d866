package cluster

import "hawccc/internal/geom"

// Hierarchical performs agglomerative single-linkage clustering, cutting
// the dendrogram at the given distance threshold: clusters are merged while
// the closest pair of points between them is within cutDistance.
//
// This is a Table IV baseline. As the paper observes, hierarchical
// clustering tends to split one person's returns across multiple clusters
// (and therefore drastically over-counts) because LiDAR returns on a body
// are banded by the beam pattern.
//
// Implementation: single-linkage with a cut threshold is exactly the
// connected components of the graph whose edges join points closer than
// cutDistance; we compute it with a union-find over a Prim-style minimum
// spanning forest, O(n²) time and O(n) memory, which is fine for the
// per-capture sizes involved (≤ a few thousand points).
func Hierarchical(cloud geom.Cloud, cutDistance float64) Result {
	n := len(cloud)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 || cutDistance <= 0 {
		return Result{Labels: labels}
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	cut2 := cutDistance * cutDistance
	// Grid-bucket the points at cutDistance resolution so we only compare
	// each point against its 27 neighboring cells instead of all pairs.
	type cell struct{ x, y, z int }
	buckets := make(map[cell][]int, n)
	key := func(p geom.Point3) cell {
		return cell{
			x: int(fastFloor(p.X / cutDistance)),
			y: int(fastFloor(p.Y / cutDistance)),
			z: int(fastFloor(p.Z / cutDistance)),
		}
	}
	for i, p := range cloud {
		k := key(p)
		buckets[k] = append(buckets[k], i)
	}
	for i, p := range cloud {
		k := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range buckets[cell{k.x + dx, k.y + dy, k.z + dz}] {
						if j <= i {
							continue
						}
						if p.Dist2(cloud[j]) <= cut2 {
							union(i, j)
						}
					}
				}
			}
		}
	}

	// Relabel components densely.
	next := 0
	compact := make(map[int]int, n)
	for i := range cloud {
		root := find(i)
		id, ok := compact[root]
		if !ok {
			id = next
			compact[root] = id
			next++
		}
		labels[i] = id
	}
	return Result{Labels: labels, NumClusters: next}
}

func fastFloor(x float64) int64 {
	i := int64(x)
	if x < 0 && float64(i) != x {
		i--
	}
	return i
}
