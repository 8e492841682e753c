package planner

import (
	"sort"

	"repro/internal/exec"
	"repro/internal/stats"
)

// reorderClusters rewires multi-join clusters into the greedy minimum-
// intermediate-cardinality order.
//
// A cluster is a maximal set of join nodes connected through direct
// join→join input edges in which every join is an inner equi-join (no band,
// no outer/semi/anti semantics). Every join in this system equates the one
// shared key attribute and internal cluster edges carry the default
// commutative payload-sum projection, so any join order over the cluster's
// leaves computes the same multiset — the planner is free to pick the order
// with the smallest estimated intermediates. An interposed Project/Map node
// breaks the direct edge and therefore fences off reordering, as does any
// non-inner or band join and any configured D-MPSM node (whose memory
// constraint is tied to the inputs the caller gave it).
//
// The cluster root's own consumer must additionally be commutative in the
// root's pair stream (another join, a group aggregate, the built-in max-sum
// sink, or plain materialization): reordering repartitions the leaves
// between the root's build and probe sides, so a consumer that observes the
// pair — a user sink, or a Project/Map whose function is not linear in the
// summed payloads — would see different values for the same joined triples.
func (s *planState) reorderClusters() (rewired bool) {
	p := s.plan
	s.symmetric = s.symmetricConsumers()
	s.consumer = s.consumers()
	inCluster := make([]bool, len(p.Nodes))
	for id := range p.Nodes {
		if inCluster[id] || !p.SameKeyJoin(exec.NodeID(id)) {
			continue
		}
		cluster := s.collectCluster(exec.NodeID(id))
		for _, j := range cluster {
			inCluster[j] = true
		}
		if len(cluster) < 2 {
			continue
		}
		if root := s.clusterRoot(cluster, memberSet(cluster)); !s.symmetric[root] {
			continue
		}
		if s.reorderCluster(cluster) {
			rewired = true
		}
	}
	return rewired
}

// memberSet builds the membership lookup of a cluster.
func memberSet(cluster []exec.NodeID) map[exec.NodeID]bool {
	m := make(map[exec.NodeID]bool, len(cluster))
	for _, id := range cluster {
		m[id] = true
	}
	return m
}

// collectCluster gathers the maximal join cluster containing seed, in
// ascending node-ID order: the same-key joins (exec.Plan.SameKeyJoin) a
// reorder may rewire and a groupjoin may replace.
func (s *planState) collectCluster(seed exec.NodeID) []exec.NodeID {
	seen := map[exec.NodeID]bool{seed: true}
	frontier := []exec.NodeID{seed}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		neighbors := make([]exec.NodeID, 0, 3)
		neighbors = append(neighbors, s.plan.Nodes[id].Inputs...)
		if c := s.consumer[id]; c >= 0 {
			neighbors = append(neighbors, c)
		}
		for _, nb := range neighbors {
			if !seen[nb] && s.plan.SameKeyJoin(nb) {
				seen[nb] = true
				frontier = append(frontier, nb)
			}
		}
	}
	cluster := make([]exec.NodeID, 0, len(seen))
	for id := range seen {
		cluster = append(cluster, id)
	}
	sort.Slice(cluster, func(i, j int) bool { return cluster[i] < cluster[j] })
	return cluster
}

// reorderCluster rebuilds one cluster as a left-deep chain over its leaves in
// greedy order: start with the leaf pair whose join is estimated smallest,
// then repeatedly join the leaf that keeps the intermediate smallest. The
// cluster's join node IDs are reused in topological (child-first) order, so
// the cluster root keeps its ID and outside consumers stay valid.
func (s *planState) reorderCluster(cluster []exec.NodeID) (rewired bool) {
	isMember := memberSet(cluster)

	// Leaves: inputs of cluster joins that are not cluster joins themselves,
	// in deterministic first-encounter order. A shared scan feeding two
	// cluster joins contributes one leaf occurrence per edge (a self-join
	// stays a self-join).
	var leaves []exec.NodeID
	for _, id := range cluster {
		for _, in := range s.plan.Nodes[id].Inputs {
			if !isMember[in] {
				leaves = append(leaves, in)
			}
		}
	}
	if len(leaves) != len(cluster)+1 {
		// Not a tree shape we understand; leave the cluster untouched.
		return false
	}

	// Topological (child-first) order of the cluster joins.
	topo := make([]exec.NodeID, 0, len(cluster))
	var visit func(id exec.NodeID)
	visited := make(map[exec.NodeID]bool, len(cluster))
	visit = func(id exec.NodeID) {
		if visited[id] || !isMember[id] {
			return
		}
		visited[id] = true
		for _, in := range s.plan.Nodes[id].Inputs {
			visit(in)
		}
		topo = append(topo, id)
	}
	root := s.clusterRoot(cluster, isMember)
	visit(root)
	if len(topo) != len(cluster) {
		return false
	}

	// Greedy order over the leaves.
	type cand struct {
		id   exec.NodeID
		prof *stats.Profile
	}
	remaining := make([]cand, len(leaves))
	for i, id := range leaves {
		remaining[i] = cand{id: id, prof: s.profiles[id]}
	}
	pickPair := func() (int, int) {
		bi, bj, bestEst := 0, 1, stats.EstimateJoin(remaining[0].prof, remaining[1].prof)
		for i := 0; i < len(remaining); i++ {
			for j := i + 1; j < len(remaining); j++ {
				if est := stats.EstimateJoin(remaining[i].prof, remaining[j].prof); est < bestEst {
					bi, bj, bestEst = i, j, est
				}
			}
		}
		return bi, bj
	}
	removeAt := func(idx int) cand {
		c := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		return c
	}

	i, j := pickPair()
	second := removeAt(j)
	firstLeaf := removeAt(i)
	est := stats.EstimateJoin(firstLeaf.prof, second.prof)
	current := stats.JoinOutput(firstLeaf.prof, second.prof, est)

	// Chain position 0 joins the two picked leaves; every further position
	// joins the running intermediate with the next greedy leaf.
	order := [][2]exec.NodeID{{firstLeaf.id, second.id}}
	prev := topo[0]
	for pos := 1; pos < len(topo); pos++ {
		bestIdx, bestEst := 0, stats.EstimateJoin(current, remaining[0].prof)
		for k := 1; k < len(remaining); k++ {
			if e := stats.EstimateJoin(current, remaining[k].prof); e < bestEst {
				bestIdx, bestEst = k, e
			}
		}
		leaf := removeAt(bestIdx)
		order = append(order, [2]exec.NodeID{prev, leaf.id})
		current = stats.JoinOutput(current, leaf.prof, bestEst)
		prev = topo[pos]
	}

	// Apply: rewire if anything changed.
	for pos, id := range topo {
		n := &s.plan.Nodes[id]
		want := []exec.NodeID{order[pos][0], order[pos][1]}
		if n.Inputs[0] != want[0] || n.Inputs[1] != want[1] {
			n.Inputs = want
			s.decide[id].Reordered = true
			rewired = true
		}
	}
	return rewired
}

// clusterRoot returns the cluster join no other cluster join consumes.
func (s *planState) clusterRoot(cluster []exec.NodeID, isMember map[exec.NodeID]bool) exec.NodeID {
	consumedByMember := make(map[exec.NodeID]bool, len(cluster))
	for _, id := range cluster {
		for _, in := range s.plan.Nodes[id].Inputs {
			if isMember[in] {
				consumedByMember[in] = true
			}
		}
	}
	for _, id := range cluster {
		if !consumedByMember[id] {
			return id
		}
	}
	return cluster[len(cluster)-1] // unreachable on valid (acyclic) plans
}
