// Package numa provides a simulated NUMA (non-uniform memory access)
// substrate. The MPSM paper's central argument is that join algorithms must be
// NUMA-affine: sort locally (commandment C1), read remote memory only
// sequentially (C2), and avoid fine-grained synchronization (C3). Go offers no
// portable NUMA placement or thread pinning, so this package substitutes a
// model:
//
//   - Topology describes a machine as a set of NUMA nodes with a number of
//     cores each (the paper's HyPer1 box has 4 nodes × 8 cores) and assigns
//     every worker a home node.
//   - AccessStats counts memory accesses classified by locality (local vs
//     remote node), pattern (sequential vs random) and direction (read vs
//     write), plus synchronization operations.
//   - CostModel converts the counters into an estimated duration using
//     per-access latencies calibrated so that the relative penalties match the
//     micro-benchmarks of Figure 1 (remote random ≫ remote sequential ≈ local).
//
// The join algorithms report their accesses in bulk (for example, "worker 3
// sequentially read 50000 tuples from node 2"), so accounting adds negligible
// overhead to the real wall-clock measurements while still letting the
// benchmark harness reproduce the paper's NUMA-effect figures.
package numa

import (
	"fmt"
	"math"
	"time"
)

// Topology models the NUMA layout of a server.
type Topology struct {
	// Nodes is the number of NUMA nodes (sockets).
	Nodes int
	// CoresPerNode is the number of physical cores attached to each node.
	CoresPerNode int
}

// DefaultTopology mirrors the paper's evaluation machine (HyPer1): four
// sockets with eight physical cores each.
func DefaultTopology() Topology { return Topology{Nodes: 4, CoresPerNode: 8} }

// NewTopology builds a topology and validates its parameters.
func NewTopology(nodes, coresPerNode int) (Topology, error) {
	if nodes <= 0 || coresPerNode <= 0 {
		return Topology{}, fmt.Errorf("numa: invalid topology %d nodes × %d cores", nodes, coresPerNode)
	}
	return Topology{Nodes: nodes, CoresPerNode: coresPerNode}, nil
}

// TotalCores returns the number of physical cores in the topology.
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode }

// NodeOfWorker returns the home NUMA node of a worker. Workers are distributed
// round-robin in blocks of CoresPerNode, mirroring how threads pinned to
// consecutive cores fill one socket before the next. Worker identifiers beyond
// the number of physical cores (hyperthreads) wrap around.
func (t Topology) NodeOfWorker(worker int) int {
	if worker < 0 {
		worker = -worker
	}
	core := worker % t.TotalCores()
	return core / t.CoresPerNode
}

// IsLocal reports whether a worker's accesses to memory on the given node are
// node-local.
func (t Topology) IsLocal(worker, node int) bool { return t.NodeOfWorker(worker) == node }

// AccessStats counts classified memory accesses. The unit is one tuple-sized
// access (16 bytes); absolute byte counts do not matter because the cost model
// only needs relative weights.
type AccessStats struct {
	LocalSeqRead   uint64
	RemoteSeqRead  uint64
	LocalRandRead  uint64
	RemoteRandRead uint64

	LocalSeqWrite   uint64
	RemoteSeqWrite  uint64
	LocalRandWrite  uint64
	RemoteRandWrite uint64

	// SyncOps counts fine-grained synchronization operations such as
	// test-and-set increments of a shared write cursor or latch
	// acquisitions on a shared hash table.
	SyncOps uint64
}

// Add accumulates other into s.
func (s *AccessStats) Add(other AccessStats) {
	s.LocalSeqRead += other.LocalSeqRead
	s.RemoteSeqRead += other.RemoteSeqRead
	s.LocalRandRead += other.LocalRandRead
	s.RemoteRandRead += other.RemoteRandRead
	s.LocalSeqWrite += other.LocalSeqWrite
	s.RemoteSeqWrite += other.RemoteSeqWrite
	s.LocalRandWrite += other.LocalRandWrite
	s.RemoteRandWrite += other.RemoteRandWrite
	s.SyncOps += other.SyncOps
}

// TotalAccesses returns the total number of recorded memory accesses,
// excluding synchronization operations.
func (s AccessStats) TotalAccesses() uint64 {
	return s.LocalSeqRead + s.RemoteSeqRead + s.LocalRandRead + s.RemoteRandRead +
		s.LocalSeqWrite + s.RemoteSeqWrite + s.LocalRandWrite + s.RemoteRandWrite
}

// RemoteFraction returns the fraction of accesses that were remote, or 0 if no
// accesses were recorded.
func (s AccessStats) RemoteFraction() float64 {
	total := s.TotalAccesses()
	if total == 0 {
		return 0
	}
	remote := s.RemoteSeqRead + s.RemoteRandRead + s.RemoteSeqWrite + s.RemoteRandWrite
	return float64(remote) / float64(total)
}

// Tracker records the accesses of a single worker against a topology. Each
// worker owns its own tracker (no sharing, in keeping with commandment C3);
// the coordinator merges them after the join.
type Tracker struct {
	topology Topology
	worker   int
	stats    AccessStats
}

// NewTracker creates a tracker for the given worker.
func NewTracker(topology Topology, worker int) *Tracker {
	return &Tracker{topology: topology, worker: worker}
}

// Worker returns the worker index the tracker belongs to.
func (t *Tracker) Worker() int { return t.worker }

// Node returns the worker's home node.
func (t *Tracker) Node() int { return t.topology.NodeOfWorker(t.worker) }

// book adds count to local or remote, as the given node is to the tracker's
// worker.
func (t *Tracker) book(node int, count uint64, local, remote *uint64) {
	if t.topology.IsLocal(t.worker, node) {
		*local += count
	} else {
		*remote += count
	}
}

// SeqRead records count sequential reads from memory on the given node.
func (t *Tracker) SeqRead(node int, count uint64) {
	if t != nil {
		t.book(node, count, &t.stats.LocalSeqRead, &t.stats.RemoteSeqRead)
	}
}

// RandRead records count random reads from memory on the given node.
func (t *Tracker) RandRead(node int, count uint64) {
	if t != nil {
		t.book(node, count, &t.stats.LocalRandRead, &t.stats.RemoteRandRead)
	}
}

// SeqWrite records count sequential writes to memory on the given node.
func (t *Tracker) SeqWrite(node int, count uint64) {
	if t != nil {
		t.book(node, count, &t.stats.LocalSeqWrite, &t.stats.RemoteSeqWrite)
	}
}

// RandWrite records count random writes to memory on the given node.
func (t *Tracker) RandWrite(node int, count uint64) {
	if t != nil {
		t.book(node, count, &t.stats.LocalRandWrite, &t.stats.RemoteRandWrite)
	}
}

// Sync records count fine-grained synchronization operations.
func (t *Tracker) Sync(count uint64) {
	if t == nil {
		return
	}
	t.stats.SyncOps += count
}

// Stats returns a copy of the tracker's counters.
func (t *Tracker) Stats() AccessStats {
	if t == nil {
		return AccessStats{}
	}
	return t.stats
}

// MergeStats combines the per-worker statistics of all trackers.
func MergeStats(trackers []*Tracker) AccessStats {
	var total AccessStats
	for _, t := range trackers {
		if t != nil {
			total.Add(t.stats)
		}
	}
	return total
}

// CostModel assigns a simulated latency to each access class. The defaults are
// calibrated against the ratios of Figure 1 in the paper:
//
//   - sorting in a remote/global array is ~3× slower than sorting locally,
//     which a ~3–4× penalty on random remote accesses reproduces;
//   - synchronized scatter (test-and-set per tuple) is ~3.2× slower than
//     scatter into precomputed partitions;
//   - sequential scans of remote memory are only ~1.2× slower than local
//     scans because the hardware prefetcher hides most of the latency.
type CostModel struct {
	LocalSeqRead   float64 // nanoseconds per access
	RemoteSeqRead  float64
	LocalRandRead  float64
	RemoteRandRead float64

	LocalSeqWrite   float64
	RemoteSeqWrite  float64
	LocalRandWrite  float64
	RemoteRandWrite float64

	SyncOp float64
}

// DefaultCostModel returns latencies (in nanoseconds per 16-byte access)
// calibrated to reproduce the relative penalties of Figure 1.
func DefaultCostModel() CostModel {
	return CostModel{
		LocalSeqRead:   1.0,
		RemoteSeqRead:  1.2,
		LocalRandRead:  4.0,
		RemoteRandRead: 14.0,

		LocalSeqWrite:   1.0,
		RemoteSeqWrite:  1.5,
		LocalRandWrite:  5.0,
		RemoteRandWrite: 16.0,

		SyncOp: 20.0,
	}
}

// Host returns the prices of one tuple's access of each kind on the reference
// sandbox (2 vCPUs, one node), while the working set is cache-resident; a
// compare-and-swap of the shared hash table's build is SyncOp. Only the local
// kinds are set: the host has one node, and what it prices books every access
// as local. With the cache ramp on random accesses (HostNanos), the planner
// (internal/planner) prices every join phase with them and P-MPSM's equi-cost
// splitter (partition.ComputeSplitters) every range partition, so both price
// one machine. They are fitted to the planner's one-to-two-worker ladder and
// to the choices its tests pin (planner.CostModel); the ladder's phases on one
// worker set them: the match phase books one sequential read per tuple scanned
// and reads 9.8–10.4 ns a tuple; run generation books two sequential reads, a
// sequential write and two random reads and writes per tuple and reads
// 14.2–15.6 ns a tuple up to 262 144 tuples; the no-partitioning join's build
// books one random write a build tuple, its probe one sequential read a probe
// tuple and one random read per probe tuple and per chain entry walked. One
// price per kind cannot serve both the sort's cheap sequential passes and the
// merge's comparisons, so a sequential read at 2 ns undercounts the merge:
// these prices order, they do not forecast the clock.
func Host() CostModel {
	return CostModel{LocalSeqRead: 2, LocalSeqWrite: 0.4, LocalRandRead: 1.4, LocalRandWrite: 4.6, SyncOp: 1.4}
}

// The host's cache ramp: a random access costs hostRandMiss more once its
// phase's working set has left the fast cache levels, phased in over
// hostCacheGrowthLog2 doublings of the working set beyond hostCacheBytes. Run
// generation reads 20.4, 23.7 and 25.5 ns a tuple at 2^19, 2^20 and 2^21
// tuples a run, and the no-partitioning join 4.4–4.6 ns an operation below
// 2^15 build tuples and 12.9 at 2^19.
const (
	hostRandMiss        = 2.2
	hostCacheBytes      = 1408 << 10
	hostCacheGrowthLog2 = 3.7
)

// MissFraction is the host's cache-miss ramp for a working set of the given
// bytes: 0 while it is cache-resident, rising to 1.
func MissFraction(bytes float64) float64 {
	if bytes <= hostCacheBytes {
		return 0
	}
	return math.Min(1, math.Log2(bytes/hostCacheBytes)/hostCacheGrowthLog2)
}

// HostNanos prices accesses at the host's prices (Host) for a working set of
// the given bytes, every random access costing its share of the cache ramp
// (MissFraction) more. The planner prices every join phase with it and
// P-MPSM's equi-cost splitters every range partition.
func HostNanos(s AccessStats, bytes float64) float64 {
	return Host().Nanos(s) + float64(s.LocalRandRead+s.LocalRandWrite)*hostRandMiss*MissFraction(bytes)
}

// Estimate converts access statistics into a simulated duration.
func (c CostModel) Estimate(s AccessStats) time.Duration {
	return time.Duration(c.Nanos(s)) * time.Nanosecond
}

// Nanos prices access statistics in nanoseconds.
func (c CostModel) Nanos(s AccessStats) float64 {
	return float64(s.LocalSeqRead)*c.LocalSeqRead +
		float64(s.RemoteSeqRead)*c.RemoteSeqRead +
		float64(s.LocalRandRead)*c.LocalRandRead +
		float64(s.RemoteRandRead)*c.RemoteRandRead +
		float64(s.LocalSeqWrite)*c.LocalSeqWrite +
		float64(s.RemoteSeqWrite)*c.RemoteSeqWrite +
		float64(s.LocalRandWrite)*c.LocalRandWrite +
		float64(s.RemoteRandWrite)*c.RemoteRandWrite +
		float64(s.SyncOps)*c.SyncOp
}
