// Package machine models the hardware platform underneath the Unimem
// runtime: a CPU, a network, and an ordered heterogeneous main-memory
// hierarchy of N tiers (tier 0 fastest).
//
// The paper evaluates on real clusters whose NVM is emulated by Quartz
// (bandwidth- or latency-throttled DRAM) or by remote NUMA memory; its
// memory system is exactly two tiers, DRAM + NVM. This package keeps that
// configuration as the degenerate case (PlatformA, Edison) and generalizes
// it to the heterogeneous main memories the paper's introduction
// anticipates: HBM on-package memory (PlatformKNL), CXL-attached expanders
// (PlatformCXL), and three-deep HBM+DDR+NVM stacks (PlatformHBMDDRNVM).
// The tier hierarchy is the ordered Tiers slice; the tier graph's migration
// edges are the pairwise copy bandwidths of CopyBandwidthBetweenBps.
//
// All simulated time in the repository is int64 nanoseconds produced by this
// package; nothing in the simulation path reads the wall clock.
package machine

import "fmt"

// CacheLineBytes is the cache line size assumed throughout (matches the
// paper's Eq. 1, which multiplies access counts by the cache line size).
const CacheLineBytes = 64

// TierKind indexes a tier in a Machine's ordered hierarchy: tier 0 is the
// fastest, higher indices are progressively slower/larger. On the paper's
// two-tier platforms index 0 is DRAM and index 1 is NVM, which the named
// constants preserve.
type TierKind int

const (
	// DRAM is the small, fast tier of the two-tier presets (index 0; the
	// fastest tier of any hierarchy).
	DRAM TierKind = iota
	// NVM is the large, slow tier of the two-tier presets (index 1).
	NVM
)

// String returns the conventional two-tier name for indices 0 and 1 and a
// generic tier label beyond.
func (k TierKind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVM:
		return "NVM"
	default:
		return fmt.Sprintf("tier%d", int(k))
	}
}

// TierSpec describes one memory tier's performance and capacity.
type TierSpec struct {
	// Name labels the tier's technology ("DRAM", "NVM", "HBM", "CXL", ...).
	Name string
	// ReadLatNS and WriteLatNS are loaded access latencies in nanoseconds.
	ReadLatNS  float64
	WriteLatNS float64
	// BandwidthBps is the per-rank sustainable bandwidth in bytes/second.
	BandwidthBps float64
	// CapacityBytes is the per-rank capacity of the tier.
	CapacityBytes int64
}

// Latency returns the effective access latency in ns for a mix of reads and
// writes, where readFrac is the fraction of accesses that are reads.
func (t TierSpec) Latency(readFrac float64) float64 {
	if readFrac < 0 {
		readFrac = 0
	} else if readFrac > 1 {
		readFrac = 1
	}
	return readFrac*t.ReadLatNS + (1-readFrac)*t.WriteLatNS
}

// Pattern classifies the main-memory access behaviour of a data object in a
// phase. The pattern determines memory-level parallelism (MLP), which is what
// makes an object bandwidth-sensitive (many concurrent independent accesses)
// or latency-sensitive (dependent accesses), per §2.2 of the paper.
type Pattern int

const (
	// Stream is sequential, massively concurrent access (e.g. vector
	// sweeps); bandwidth-bound.
	Stream Pattern = iota
	// Stencil is near-neighbour access with good spatial locality and high
	// concurrency; mostly bandwidth-bound.
	Stencil
	// Random is independent accesses with poor locality and moderate
	// concurrency; sensitive to both bandwidth and latency.
	Random
	// PointerChase is dependent accesses (linked traversal, indexed
	// gather chains); latency-bound.
	PointerChase
)

var patternNames = [...]string{"stream", "stencil", "random", "pointer-chase"}

// String returns a short human-readable pattern name.
func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// MLP returns the memory-level parallelism assumed for the pattern: the
// effective number of main-memory accesses in flight (hardware prefetchers
// give streaming sweeps very deep pipelines; dependent chains have none).
func (p Pattern) MLP() float64 {
	switch p {
	case Stream:
		return 320
	case Stencil:
		return 32
	case Random:
		return 8
	case PointerChase:
		return 1
	default:
		return 1
	}
}

// Machine is the full platform description. The zero value is not usable;
// construct with one of the Platform* presets or Edison and derive variants
// with the With* methods (which return copies, so a base machine can be
// reused across experiment sweeps).
type Machine struct {
	Name string

	// Tiers is the ordered memory hierarchy, tier 0 fastest. Every preset
	// has at least two tiers; the paper's platforms have exactly two
	// (DRAM at index 0, NVM at index 1).
	Tiers []TierSpec

	// CopyBandwidthBps is the achievable tier-to-tier memcpy bandwidth used
	// for data migration (Eq. 4's mem_copy_bw), limited by the slowest tier
	// of the hierarchy; CopyBandwidthBetweenBps gives the per-edge figure.
	CopyBandwidthBps float64

	// CPUFreqHz is the core clock; together with SampleIntervalCycles it
	// sets the emulated performance-counter sampling period.
	CPUFreqHz float64
	// FlopsPerSec is the per-rank achievable compute throughput used to
	// convert a phase's flop count into compute time.
	FlopsPerSec float64
	// SampleIntervalCycles is the counter sampling interval (paper: 1000).
	SampleIntervalCycles int64

	// NetLatencyNS and NetBandwidthBps parametrize the interconnect model
	// used by the MPI substrate.
	NetLatencyNS    float64
	NetBandwidthBps float64
}

// PlatformA returns the paper's "Platform A": a small cluster with two
// eight-core Xeon E5-2630 per node and 32 GB DDR4. The DRAM numbers are
// first-order per-rank figures; the experiments only depend on NVM/DRAM
// ratios, which the With* methods set exactly as the paper's sweeps do.
// The default NVM tier equals DRAM performance (i.e. not yet degraded);
// experiments always derive a degraded variant.
func PlatformA() *Machine {
	dram := TierSpec{
		Name:          "DRAM",
		ReadLatNS:     80,
		WriteLatNS:    80,
		BandwidthBps:  12.8e9,
		CapacityBytes: 256 << 20, // paper's default HMS DRAM: 256MB
	}
	nvm := dram
	nvm.Name = "NVM"
	nvm.CapacityBytes = 16 << 30 // paper's default NVM: 16GB
	m := &Machine{
		Name:                 "PlatformA",
		Tiers:                []TierSpec{dram, nvm},
		CPUFreqHz:            2.4e9,
		FlopsPerSec:          4.8e9,
		SampleIntervalCycles: 1000,
		NetLatencyNS:         1500,
		NetBandwidthBps:      5.0e9,
	}
	m.recomputeCopyBW()
	return m
}

// Edison returns the LBNL Edison-like platform used for strong scaling
// (two 12-core Ivy Bridge, 64 GB DDR3), with NVM emulated by remote NUMA:
// 60% of DRAM bandwidth and 1.89x DRAM latency, and 32GB NVM / 256MB DRAM
// per the paper's strong-scaling configuration.
func Edison() *Machine {
	m := PlatformA()
	m.Name = "Edison"
	m.Tiers[0].BandwidthBps = 14.0e9
	m.Tiers[1].BandwidthBps = 14.0e9
	m.Tiers[1].CapacityBytes = 32 << 30
	m.NetLatencyNS = 1100
	m.NetBandwidthBps = 8.0e9
	mm := m.WithNVMBandwidthFraction(0.60)
	mm = mm.WithNVMLatencyFactor(1.89)
	mm.Name = "Edison"
	return mm
}

// PlatformKNL returns a Knights-Landing-like two-tier platform: on-package
// HBM (MCDRAM) as the small fast tier over DDR as the large slow tier. HBM
// trades ~4x the stream bandwidth for slightly worse loaded latency, which
// is what makes placement interesting: bandwidth-bound objects want HBM,
// dependent chains prefer DDR. Capacities follow the repository's simulated
// scale (fast tier 256MB per rank, like Platform A's DRAM allowance).
func PlatformKNL() *Machine {
	m := PlatformA()
	m.Name = "KNL"
	hbm := TierSpec{
		Name:          "HBM",
		ReadLatNS:     90,
		WriteLatNS:    90,
		BandwidthBps:  51.2e9,
		CapacityBytes: 256 << 20,
	}
	ddr := TierSpec{
		Name:          "DDR",
		ReadLatNS:     80,
		WriteLatNS:    80,
		BandwidthBps:  12.8e9,
		CapacityBytes: 16 << 30,
	}
	m.Tiers = []TierSpec{hbm, ddr}
	m.recomputeCopyBW()
	return m
}

// PlatformCXL returns a CXL-memory-expansion platform: local DDR as the
// small fast tier and a CXL-attached expander as the large slow tier, with
// the expander paying the link round trip (~2.5x loaded latency) and half
// the local bandwidth — the regime CXL type-3 devices land in.
func PlatformCXL() *Machine {
	m := PlatformA()
	m.Name = "CXL"
	ddr := TierSpec{
		Name:          "DDR",
		ReadLatNS:     80,
		WriteLatNS:    80,
		BandwidthBps:  12.8e9,
		CapacityBytes: 256 << 20,
	}
	cxl := TierSpec{
		Name:          "CXL",
		ReadLatNS:     200,
		WriteLatNS:    200,
		BandwidthBps:  6.4e9,
		CapacityBytes: 16 << 30,
	}
	m.Tiers = []TierSpec{ddr, cxl}
	m.recomputeCopyBW()
	return m
}

// PlatformHBMDDRNVM returns a three-tier platform: a small HBM tier over a
// mid-size DDR tier over a large NVM tier whose performance point follows
// Table 1's STT-RAM row (6x/8x read/write latency, 0.7x bandwidth vs DRAM),
// the same technology scaling TechMachine applies to the two-tier sweeps.
func PlatformHBMDDRNVM() *Machine {
	m := PlatformA()
	m.Name = "HBM+DDR+NVM"
	hbm := TierSpec{
		Name:          "HBM",
		ReadLatNS:     90,
		WriteLatNS:    90,
		BandwidthBps:  51.2e9,
		CapacityBytes: 128 << 20,
	}
	ddr := TierSpec{
		Name:          "DDR",
		ReadLatNS:     80,
		WriteLatNS:    80,
		BandwidthBps:  12.8e9,
		CapacityBytes: 256 << 20,
	}
	nvm := TierSpec{
		Name:          "NVM",
		ReadLatNS:     80 * 6,
		WriteLatNS:    80 * 8,
		BandwidthBps:  12.8e9 * 0.7,
		CapacityBytes: 16 << 30,
	}
	m.Tiers = []TierSpec{hbm, ddr, nvm}
	m.recomputeCopyBW()
	return m
}

// clone returns a deep copy of m (the tier slice is copied, so derived
// machines never alias their base).
func (m *Machine) clone() *Machine {
	c := *m
	c.Tiers = append([]TierSpec(nil), m.Tiers...)
	return &c
}

// NumTiers returns the depth of the memory hierarchy.
func (m *Machine) NumTiers() int { return len(m.Tiers) }

// Tier returns the spec of tier k (0 fastest).
func (m *Machine) Tier(k TierKind) TierSpec {
	if int(k) < 0 || int(k) >= len(m.Tiers) {
		panic(fmt.Sprintf("machine: tier %d out of range (machine has %d tiers)", int(k), len(m.Tiers)))
	}
	return m.Tiers[k]
}

// Fastest returns the spec of tier 0.
func (m *Machine) Fastest() TierSpec { return m.Tiers[0] }

// Slowest returns the spec of the last tier.
func (m *Machine) Slowest() TierSpec { return m.Tiers[len(m.Tiers)-1] }

// SlowestIdx returns the index of the last (slowest) tier — NVM on the
// two-tier presets.
func (m *Machine) SlowestIdx() TierKind { return TierKind(len(m.Tiers) - 1) }

// TierName returns tier k's technology label.
func (m *Machine) TierName(k TierKind) string { return m.Tier(k).Name }

// recomputeCopyBW sets the migration copy bandwidth to a fixed fraction of
// the slowest tier's bandwidth: a cross-tier memcpy is limited by its
// slower side once a tier is degraded.
func (m *Machine) recomputeCopyBW() {
	slow := m.Tiers[0].BandwidthBps
	for _, t := range m.Tiers[1:] {
		if t.BandwidthBps < slow {
			slow = t.BandwidthBps
		}
	}
	m.CopyBandwidthBps = 0.85 * slow
}

// WithNVMBandwidthFraction returns a copy of m whose slowest tier has
// frac x fastest-tier bandwidth (latency unchanged). frac must be in (0, 1].
func (m *Machine) WithNVMBandwidthFraction(frac float64) *Machine {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("machine: bandwidth fraction %v out of (0,1]", frac))
	}
	c := m.clone()
	c.Tiers[len(c.Tiers)-1].BandwidthBps = m.Tiers[0].BandwidthBps * frac
	c.Name = fmt.Sprintf("%s/NVM-bw=%gx", m.Name, frac)
	c.recomputeCopyBW()
	return c
}

// WithNVMLatencyFactor returns a copy of m whose slowest tier has factor x
// fastest-tier latency (bandwidth unchanged). factor must be >= 1.
func (m *Machine) WithNVMLatencyFactor(factor float64) *Machine {
	if factor < 1 {
		panic(fmt.Sprintf("machine: latency factor %v < 1", factor))
	}
	c := m.clone()
	last := len(c.Tiers) - 1
	c.Tiers[last].ReadLatNS = m.Tiers[0].ReadLatNS * factor
	c.Tiers[last].WriteLatNS = m.Tiers[0].WriteLatNS * factor
	c.Name = fmt.Sprintf("%s/NVM-lat=%gx", m.Name, factor)
	c.recomputeCopyBW()
	return c
}

// WithDRAMCapacity returns a copy of m with the given per-rank capacity on
// the fastest tier.
func (m *Machine) WithDRAMCapacity(bytes int64) *Machine {
	return m.WithTierCapacity(0, bytes)
}

// WithTierCapacity returns a copy of m with tier k's per-rank capacity set.
func (m *Machine) WithTierCapacity(k TierKind, bytes int64) *Machine {
	c := m.clone()
	c.Tiers[k] = c.Tier(k) // bounds check
	c.Tiers[k].CapacityBytes = bytes
	return c
}

// FastTwin returns a copy of m in which every tier has the component-wise
// best performance of the hierarchy — the maximum bandwidth and minimum
// latency over all tiers (capacities unchanged). This is the
// fastest-memory-only system multi-tier results normalize against,
// generalizing the paper's DRAM-only baseline: a true upper bound even
// when tier 0 trades latency for bandwidth (KNL's HBM has 4x DDR's
// bandwidth but worse loaded latency, so neither real tier dominates).
// On the two-tier presets, where DRAM dominates NVM on every axis, this
// is exactly the paper's undegraded twin.
func (m *Machine) FastTwin() *Machine {
	c := m.clone()
	best := c.Tiers[0]
	for _, t := range c.Tiers[1:] {
		if t.BandwidthBps > best.BandwidthBps {
			best.BandwidthBps = t.BandwidthBps
		}
		if t.ReadLatNS < best.ReadLatNS {
			best.ReadLatNS = t.ReadLatNS
		}
		if t.WriteLatNS < best.WriteLatNS {
			best.WriteLatNS = t.WriteLatNS
		}
	}
	for i := range c.Tiers {
		c.Tiers[i].ReadLatNS = best.ReadLatNS
		c.Tiers[i].WriteLatNS = best.WriteLatNS
		c.Tiers[i].BandwidthBps = best.BandwidthBps
	}
	c.Name = m.Name + "/fast-twin"
	c.recomputeCopyBW()
	return c
}

// SamplePeriodNS returns the emulated counter sampling period in ns.
func (m *Machine) SamplePeriodNS() float64 {
	return float64(m.SampleIntervalCycles) / m.CPUFreqHz * 1e9
}

// MemTimeNS returns the virtual time, in nanoseconds, to service accesses
// main-memory accesses of the given pattern against tier k, with readFrac
// of them reads. The model is additive: a bandwidth term (bytes moved over
// tier bandwidth) plus a latency term (serialized access chains of depth
// accesses/MLP). Deep-MLP streams are bandwidth-bound and nearly latency-
// insensitive; dependent chains are the reverse; mid-MLP random access
// pays both — which is exactly the sensitivity taxonomy of §2.2 (and lets
// an object be "sensitive to both", like SP's rhs in Fig. 4).
func (m *Machine) MemTimeNS(k TierKind, accesses int64, p Pattern, readFrac float64) float64 {
	if accesses <= 0 {
		return 0
	}
	t := m.Tier(k)
	bwTerm := float64(accesses*CacheLineBytes) / t.BandwidthBps * 1e9
	latTerm := float64(accesses) * t.Latency(readFrac) / p.MLP()
	return bwTerm + latTerm
}

// ComputeTimeNS converts a flop count into compute time.
func (m *Machine) ComputeTimeNS(flops float64) float64 {
	if flops <= 0 {
		return 0
	}
	return flops / m.FlopsPerSec * 1e9
}

// CopyTimeNS returns the virtual time to migrate bytes across the
// hierarchy's slowest migration edge (the DRAM<->NVM edge on the two-tier
// presets). Tier-pair-aware callers should use CopyTimeBetweenNS.
func (m *Machine) CopyTimeNS(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.CopyBandwidthBps * 1e9
}

// CopyBandwidthBetweenBps returns the migration bandwidth of the tier-graph
// edge between tiers a and b: a memcpy runs at a fixed efficiency of the
// slower endpoint's bandwidth. On two-tier machines this equals
// CopyBandwidthBps for the only edge.
func (m *Machine) CopyBandwidthBetweenBps(a, b TierKind) float64 {
	slow := m.Tier(a).BandwidthBps
	if bw := m.Tier(b).BandwidthBps; bw < slow {
		slow = bw
	}
	return 0.85 * slow
}

// CopyTimeBetweenNS returns the virtual time to migrate bytes from tier a
// to tier b.
func (m *Machine) CopyTimeBetweenNS(a, b TierKind, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.CopyBandwidthBetweenBps(a, b) * 1e9
}

// MsgTimeNS returns the virtual time for a point-to-point message of the
// given size: a latency term plus a bandwidth term.
func (m *Machine) MsgTimeNS(bytes int64) float64 {
	return m.NetLatencyNS + float64(bytes)/m.NetBandwidthBps*1e9
}
