package main

import "time"

// The host this benchmark runs on is a slice of a shared machine. Its
// speed drifts by 20–40% over seconds to minutes, while the simulator's
// work stays exactly the same (see README.md, "Noise"). refClock measures
// that drift while a round runs. Between cells it runs a fixed reference
// quantum: four independent integer chains, throughput-bound
// arithmetic with no memory traffic. The quantum is part of the
// benchmark, not of the program under test, so a change to the program
// cannot make it faster or slower. On the benchmark's host, the inverse
// of its speed correlates 0.94–0.96 with the raw time of short-cells and
// checked-chaos rounds, and 0.75 with figure4-grid rounds, whose work
// also differs between cell lists. A latency-bound loop of one chain
// does not track the simulator: it stays steady while the simulator
// slows.
//
// A round's time metrics are scaled by nominalQuantum divided by the
// round's mean quantum time. They then read as seconds on a host whose
// quantum takes nominalQuantum. The traced run reports the raw seconds
// and the speed factor.
type refClock struct {
	quanta int
	busy   time.Duration
	sink   uint64
}

const (
	// refShare is the reference work's share of a round's timed cell
	// time.
	refShare = 0.25
	// refChainIters sizes one quantum.
	refChainIters = 1_000_000
	// nominalQuantum is the median quantum time on a 2-vCPU 2.1 GHz Xeon
	// (Sapphire Rapids) KVM guest.
	nominalQuantum = 1400 * time.Microsecond
)

// quantum is one unit of reference work. It allocates nothing.
func (r *refClock) quantum() {
	a, b, c, d := r.sink, uint64(2), uint64(3), uint64(4)
	for i := 0; i < refChainIters; i++ {
		a = a*3 + 1
		b ^= b << 7
		c += a ^ b
		d += c >> 3
	}
	r.sink = a + b + c + d
}

// keepUp runs quanta until the reference work has taken refShare of
// cellTime, the round's timed cell time so far.
func (r *refClock) keepUp(cellTime time.Duration) {
	for r.busy < time.Duration(refShare*float64(cellTime)) {
		start := time.Now()
		r.quantum()
		r.busy += time.Since(start)
		r.quanta++
	}
}

// speed is how fast the host ran during the round, relative to the
// nominal host: above 1 is faster. With no quanta run it is 1.
func (r *refClock) speed() float64 {
	if r.quanta == 0 {
		return 1
	}
	return float64(nominalQuantum) * float64(r.quanta) / float64(r.busy)
}
