// Package config holds the simulator's input parameters.
//
// The parameter set mirrors Table III of the paper (workload, system, and
// Garnet/network levels), except the fabric shape (#4-5, #8-12), which the
// topology package owns; the defaults mirror Table IV ("System
// Parameters" used for all experiments). Time is in cycles at a 1 GHz
// clock, so 1 cycle = 1 ns and a 200 GB/s link moves 200 bytes per cycle.
package config

import (
	"errors"
	"fmt"
)

// SchedulingPolicy is Table III parameter #7: the order in which pending
// collectives are issued from the ready queue.
type SchedulingPolicy int

const (
	// LIFO issues the most recently created collective first. During
	// back-propagation this prioritizes early layers whose weight
	// gradients are needed soonest in the next iteration (paper §III-E).
	LIFO SchedulingPolicy = iota
	// FIFO issues collectives in creation order.
	FIFO
	// Priority issues collectives by an explicit priority the workload
	// layer assigns (lower value = more urgent), realizing §III-E's
	// "further prioritizing and completing the first layer's
	// communication operations before communication operations from
	// later layers even though they were issued earlier". The layer-wise
	// training loop assigns each layer its index, so layer 0's gradients
	// always jump the queue.
	Priority
)

func (p SchedulingPolicy) String() string {
	switch p {
	case LIFO:
		return "LIFO"
	case FIFO:
		return "FIFO"
	case Priority:
		return "PRIORITY"
	}
	return fmt.Sprintf("SchedulingPolicy(%d)", int(p))
}

// ParseSchedulingPolicy converts "LIFO"/"FIFO"/"PRIORITY" to a
// SchedulingPolicy.
func ParseSchedulingPolicy(s string) (SchedulingPolicy, error) {
	switch s {
	case "LIFO", "lifo":
		return LIFO, nil
	case "FIFO", "fifo":
		return FIFO, nil
	case "PRIORITY", "priority":
		return Priority, nil
	}
	return 0, fmt.Errorf("config: unknown scheduling policy %q", s)
}

// Algorithm is Table III parameter #3: the hierarchical collective
// communication algorithm.
type Algorithm int

const (
	// Baseline performs a full collective on every dimension in order
	// (e.g. all-reduce on local, then vertical, then horizontal rings).
	Baseline Algorithm = iota
	// Enhanced is the 4-phase algorithm: reduce-scatter on the local
	// dimension, all-reduce across the inter-package dimensions on the
	// scattered (1/M-sized) data, and a final local all-gather. It sends
	// M times less traffic over the slow inter-package links.
	Enhanced
)

func (a Algorithm) String() string {
	switch a {
	case Baseline:
		return "baseline"
	case Enhanced:
		return "enhanced"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts "baseline"/"enhanced" to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "baseline":
		return Baseline, nil
	case "enhanced":
		return Enhanced, nil
	}
	return 0, fmt.Errorf("config: unknown algorithm %q", s)
}

// PacketRouting is Table III parameter #14. All paper experiments use
// software routing: every collective step talks to a ring neighbor (or a
// global switch), so packets never route adaptively inside the fabric.
type PacketRouting int

const (
	SoftwareRouting PacketRouting = iota
	HardwareRouting
)

func (r PacketRouting) String() string {
	if r == SoftwareRouting {
		return "software"
	}
	return "hardware"
}

// InjectionPolicy is Table III parameter #15: how many messages may be
// injected at once under hardware routing.
type InjectionPolicy int

const (
	NormalInjection InjectionPolicy = iota
	AggressiveInjection
)

func (p InjectionPolicy) String() string {
	if p == NormalInjection {
		return "normal"
	}
	return "aggressive"
}

// Backend selects the network-layer transport implementation — the
// congestion-aware/unaware duality of the original ASTRA-SIM, which ships
// separate Garnet (packet-level) and analytical binaries for exactly this
// trade-off.
type Backend int

const (
	// PacketBackend is the congestion-aware packet-granularity fabric
	// model (internal/noc): finite buffers, head-of-line backpressure,
	// fault injection. The zero value, so existing configs keep their
	// behavior.
	PacketBackend Backend = iota
	// FastBackend is the congestion-unaware analytical model
	// (internal/fastnet): closed-form link serialization with infinite
	// buffers, derived from the oracle's alpha-beta recurrence. Exact
	// whenever the packet model's buffers never fill; orders of magnitude
	// faster on large fabrics.
	FastBackend
)

func (b Backend) String() string {
	switch b {
	case PacketBackend:
		return "packet"
	case FastBackend:
		return "fast"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend converts "packet"/"fast" to a Backend. The error names the
// offending token so CLI users see what was rejected.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "packet":
		return PacketBackend, nil
	case "fast":
		return FastBackend, nil
	}
	return 0, fmt.Errorf("config: unknown network backend %q (want \"packet\" or \"fast\")", s)
}

// Network collects the Garnet-level parameters (Table III #17-28 and the
// corresponding Table IV values). Bandwidths are expressed in bytes per
// cycle; at 1 GHz that equals GB/s.
type Network struct {
	// LocalLinkBandwidth is the intra-package (NAM-to-NAM) link bandwidth
	// in bytes/cycle. Table IV: 200 GB/s.
	LocalLinkBandwidth float64
	// PackageLinkBandwidth is the inter-package link bandwidth in
	// bytes/cycle. Table IV: 25 GB/s.
	PackageLinkBandwidth float64
	// LocalLinkLatency is the intra-package link traversal latency in
	// cycles. Table IV: 90.
	LocalLinkLatency uint64
	// PackageLinkLatency is the inter-package link traversal latency in
	// cycles. Table IV: 200.
	PackageLinkLatency uint64
	// RouterLatency is the per-hop router pipeline latency in cycles
	// (Table IV: 1).
	RouterLatency uint64
	// LocalLinkEfficiency is the data-flit fraction on intra-package
	// links: data-flits / (data-flits + header-flits). Table IV: 0.94.
	LocalLinkEfficiency float64
	// PackageLinkEfficiency is the same ratio for inter-package links.
	PackageLinkEfficiency float64
	// LocalPacketSize is the intra-package packet size in bytes
	// (Table IV: 512).
	LocalPacketSize int
	// PackagePacketSize is the inter-package packet size in bytes
	// (Table IV: 256).
	PackagePacketSize int
	// FlitWidthBits is the flit size in bits (Table IV: 1024).
	FlitWidthBits int
	// VCsPerVNet is the number of virtual channels per virtual network
	// (Table IV: 50). Together with BuffersPerVC it bounds how many
	// packets a link's input queue may hold before backpressure.
	VCsPerVNet int
	// BuffersPerVC is the number of flit buffers per VC (Table IV: 5000).
	BuffersPerVC int
	// ScaleOutLinkBandwidth is the per-link bandwidth of the scale-out
	// (ethernet-like) fabric in bytes/cycle; 12.5 = 100 Gb/s.
	ScaleOutLinkBandwidth float64
	// ScaleOutLinkLatency is the one-way scale-out link latency in
	// cycles (2000 = 2 us).
	ScaleOutLinkLatency uint64
	// ScaleOutLinkEfficiency is the payload fraction after ethernet and
	// transport headers.
	ScaleOutLinkEfficiency float64
	// ScaleOutPacketSize is the MTU in bytes.
	ScaleOutPacketSize int
	// MaxPacketsPerMessage caps how many discrete packet events one
	// message expands to. Serialization time is exact either way (it is
	// computed from total bytes); the cap only coarsens the pipelining
	// granularity so that 64-node x 64-MB simulations stay tractable.
	// Zero means no cap (one packet event per LocalPacketSize /
	// PackagePacketSize bytes, exactly as the paper's Garnet run).
	MaxPacketsPerMessage int
}

// DefaultNetwork returns the Table IV network parameters.
func DefaultNetwork() Network {
	return Network{
		LocalLinkBandwidth:     200,
		PackageLinkBandwidth:   25,
		LocalLinkLatency:       90,
		PackageLinkLatency:     200,
		RouterLatency:          1,
		LocalLinkEfficiency:    0.94,
		PackageLinkEfficiency:  0.94,
		LocalPacketSize:        512,
		PackagePacketSize:      256,
		ScaleOutLinkBandwidth:  12.5,
		ScaleOutLinkLatency:    2000,
		ScaleOutLinkEfficiency: 0.9,
		ScaleOutPacketSize:     1500,
		FlitWidthBits:          1024,
		VCsPerVNet:             50,
		BuffersPerVC:           5000,
		MaxPacketsPerMessage:   64,
	}
}

// Validate reports the first invalid network parameter, if any.
func (n Network) Validate() error {
	switch {
	case n.LocalLinkBandwidth <= 0:
		return errors.New("config: LocalLinkBandwidth must be positive")
	case n.PackageLinkBandwidth <= 0:
		return errors.New("config: PackageLinkBandwidth must be positive")
	case n.LocalLinkEfficiency <= 0 || n.LocalLinkEfficiency > 1:
		return errors.New("config: LocalLinkEfficiency must be in (0, 1]")
	case n.PackageLinkEfficiency <= 0 || n.PackageLinkEfficiency > 1:
		return errors.New("config: PackageLinkEfficiency must be in (0, 1]")
	case n.LocalPacketSize <= 0:
		return errors.New("config: LocalPacketSize must be positive")
	case n.PackagePacketSize <= 0:
		return errors.New("config: PackagePacketSize must be positive")
	case n.ScaleOutLinkBandwidth <= 0:
		return errors.New("config: ScaleOutLinkBandwidth must be positive")
	case n.ScaleOutLinkEfficiency <= 0 || n.ScaleOutLinkEfficiency > 1:
		return errors.New("config: ScaleOutLinkEfficiency must be in (0, 1]")
	case n.ScaleOutPacketSize <= 0:
		return errors.New("config: ScaleOutPacketSize must be positive")
	case n.FlitWidthBits <= 0:
		return errors.New("config: FlitWidthBits must be positive")
	case n.VCsPerVNet <= 0:
		return errors.New("config: VCsPerVNet must be positive")
	case n.BuffersPerVC <= 0:
		return errors.New("config: BuffersPerVC must be positive")
	case n.MaxPacketsPerMessage < 0:
		return errors.New("config: MaxPacketsPerMessage must be >= 0")
	}
	return nil
}

// System collects the system-layer parameters (Table III #3, #6-7 and
// #13-16). Table III #4-5 and #8-12 (NPU and package counts, topology,
// ring and switch counts) describe the fabric and are owned by the
// topology.Topology a simulation runs on, never mirrored here.
type System struct {
	// Algorithm selects baseline vs enhanced hierarchical collectives.
	Algorithm Algorithm
	// Backend selects the network transport under the system layer:
	// PacketBackend (congestion-aware, the default) or FastBackend
	// (congestion-unaware analytical). It lives in the system config so
	// the choice flows through every Platform, sweep, and experiment
	// without new plumbing.
	Backend Backend
	// EndpointDelay is Table III #13: the constant NMU delay charged
	// after receiving a message, in cycles (Table IV: 10).
	EndpointDelay uint64
	// TransportDelay is the additional transport-layer (e.g. TCP/RoCE)
	// processing charged per message crossing the scale-out fabric —
	// part of the scale-out extension.
	TransportDelay uint64
	// SchedulingPolicy orders the ready queue (LIFO in the paper runs).
	SchedulingPolicy SchedulingPolicy
	// PacketRouting and InjectionPolicy are Table III #14-15.
	PacketRouting   PacketRouting
	InjectionPolicy InjectionPolicy
	// PreferredSetSplits is Table III #16: how many chunks each set is
	// divided into for pipelining.
	PreferredSetSplits int
	// LSQWidth is how many chunks one logical scheduling queue runs
	// concurrently on its ring/switch. Width 2 interleaves two chunks to
	// fill ring-latency bubbles (§IV-B: "the scheduler tries to
	// interleave the execution of chunks within the same queue to fully
	// utilize the bandwidth") while still staggering chunk completions
	// so that consecutive phases overlap across chunks.
	LSQWidth int
	// IssueThreshold is the dispatcher's "T": when fewer than T chunks
	// remain in the first phase, new chunks are issued (paper §IV-B/V-F:
	// "issues 16 new chunks ... if there are fewer than 8").
	IssueThreshold int
	// IssueBatch is the dispatcher's "P": how many chunks are issued
	// from the ready queue at once.
	IssueBatch int

	// RemoteMemBandwidth, when positive, enables the disaggregated
	// remote-memory tier: a pooled CXL-style bandwidth domain in
	// bytes/cycle that layers or graph nodes with remote/interleaved
	// tensor placement stream through in addition to local DRAM. Zero
	// (the default) disables the tier at zero overhead.
	RemoteMemBandwidth float64
	// RemoteMemLatency is the per-access round-trip latency of the
	// remote-memory pool in cycles, charged once per remote or
	// interleaved access on top of the streaming time.
	RemoteMemLatency uint64

	// IntraParallel, when positive, runs the packet backend with
	// intra-run parallel discrete-event simulation (internal/pdes): the
	// network's event load is partitioned by topology component across
	// shard engines advanced by that many workers in conservative
	// lookahead windows. Results are byte-identical to the serial engine
	// at every worker count; 0 (the default) keeps the serial engine.
	// The fast backend ignores it. Not combinable with fault injection
	// or point-to-point routing (both report a clear error).
	IntraParallel int
}

// DefaultSystem returns the system parameters used by the paper's
// experiments: endpoint delay of 10 cycles, LIFO scheduling, 64 chunk
// splits, and the T=8/P=16 dispatcher. The topology and its ring and
// switch counts are not system parameters; they come from the topology.
func DefaultSystem() System {
	return System{
		Algorithm:          Baseline,
		EndpointDelay:      10,
		TransportDelay:     500,
		SchedulingPolicy:   LIFO,
		PacketRouting:      SoftwareRouting,
		InjectionPolicy:    AggressiveInjection,
		PreferredSetSplits: 64,
		LSQWidth:           2,
		IssueThreshold:     8,
		IssueBatch:         16,
	}
}

// Validate reports the first invalid system parameter, if any.
func (s System) Validate() error {
	switch {
	case s.Backend != PacketBackend && s.Backend != FastBackend:
		return fmt.Errorf("config: unknown network backend %d", int(s.Backend))
	case s.PreferredSetSplits <= 0:
		return errors.New("config: PreferredSetSplits must be positive")
	case s.LSQWidth <= 0:
		return errors.New("config: LSQWidth must be positive")
	case s.IssueThreshold <= 0:
		return errors.New("config: IssueThreshold must be positive")
	case s.IssueBatch <= 0:
		return errors.New("config: IssueBatch must be positive")
	case s.IntraParallel < 0:
		return errors.New("config: IntraParallel must be >= 0 (0 = serial engine)")
	case s.RemoteMemBandwidth < 0:
		return errors.New("config: RemoteMemBandwidth must be >= 0 (0 = remote tier disabled)")
	}
	return nil
}

// Workload collects the workload-level parameters (Table III #1-2).
type Workload struct {
	// DNNName names the workload description input file.
	DNNName string
	// NumPasses is the number of forward/backward iterations to simulate.
	NumPasses int
}

// Config bundles all three levels.
type Config struct {
	Workload Workload
	System   System
	Network  Network
}

// Default returns the complete Table IV configuration with a two-pass
// workload, matching the paper's per-layer reports ("two training
// iterations").
func Default() Config {
	return Config{
		Workload: Workload{NumPasses: 2},
		System:   DefaultSystem(),
		Network:  DefaultNetwork(),
	}
}

// Validate checks every level.
func (c Config) Validate() error {
	if err := c.System.Validate(); err != nil {
		return err
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if c.Workload.NumPasses <= 0 {
		return errors.New("config: NumPasses must be positive")
	}
	return nil
}
