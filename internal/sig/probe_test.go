package sig

import (
	"math/rand"
	"testing"

	"logtmse/internal/addr"
)

// mustFilter builds one filter from c, panicking on a bad config (all
// configs here are valid by construction).
func mustFilter(c Config) Filter {
	f, err := c.New()
	if err != nil {
		panic(err)
	}
	return f
}

// wrapFilter hides the concrete type from the probe fast paths, forcing
// TestProbe through its interface fallback.
type wrapFilter struct{ Filter }

func (w wrapFilter) Clone() Filter { return wrapFilter{w.Filter.Clone()} }

// probeConfigs is allocConfigs plus varied geometries: the probe must be
// exact for every size the encoder accepts, not just the default.
func probeConfigs() []Config {
	return append(allocConfigs(),
		Config{Kind: KindBitSelect, Bits: 64},
		Config{Kind: KindDoubleBitSelect, Bits: 8192},
		Config{Kind: KindCoarseBitSelect, Bits: 512},
		Config{Kind: KindH3, Bits: 4096, Hashes: 8},
		Config{Kind: KindH3, Bits: 1024, Hashes: 1},
	)
}

// randAddrs draws n addresses over a range wide enough to exercise both
// hits and misses, with sub-block offsets so probes must normalize to
// block granularity like MayContain does.
func randAddrs(rng *rand.Rand, n int) []addr.PAddr {
	as := make([]addr.PAddr, n)
	for i := range as {
		as[i] = addr.PAddr(rng.Intn(8192)*addr.BlockBytes + rng.Intn(addr.BlockBytes))
	}
	return as
}

// TestProbeMatchesMayContain is the probe equivalence contract: for every
// filter kind and geometry — and for an unknown implementation taking the
// fallback path — TestProbe over a prepared probe answers exactly like
// MayContain on the address it was prepared from.
func TestProbeMatchesMayContain(t *testing.T) {
	for _, c := range probeConfigs() {
		for _, wrapped := range []bool{false, true} {
			name := c.String()
			if wrapped {
				name += "/fallback"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(c.Bits) + 13))
				f := mustFilter(c)
				if wrapped {
					f = wrapFilter{f}
				}
				for _, a := range randAddrs(rng, 300) {
					f.Insert(a)
				}
				for _, a := range randAddrs(rng, 2000) {
					p := PrepareProbe(f, a)
					if got, want := TestProbe(f, &p), f.MayContain(a); got != want {
						t.Fatalf("TestProbe(%v) = %v, MayContain = %v", a, got, want)
					}
				}
			})
		}
	}
}

// TestProbeTracksGrowth pins the perfect-filter probe across table
// growth: the probe stores the unmasked hash, so a probe prepared before
// a grow must still answer correctly after it.
func TestProbeTracksGrowth(t *testing.T) {
	f := mustFilter(Config{Kind: KindPerfect})
	target := addr.PAddr(5 * addr.BlockBytes)
	f.Insert(target)
	p := PrepareProbe(f, target)
	miss := PrepareProbe(f, addr.PAddr(99999*addr.BlockBytes))
	for i := 0; i < 4096; i++ { // force several grows
		f.Insert(addr.PAddr((1000 + i) * addr.BlockBytes))
	}
	if !TestProbe(f, &p) {
		t.Fatal("probe prepared before growth lost its member")
	}
	if TestProbe(f, &miss) {
		t.Fatal("probe prepared before growth gained a false member")
	}
}

// TestConflictProbeMatchesConflict checks the signature-level wrapper
// against Signature.Conflict for both request kinds.
func TestConflictProbeMatchesConflict(t *testing.T) {
	for _, c := range probeConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.Bits) + 29))
			s := MustSignature(c)
			for _, a := range randAddrs(rng, 100) {
				s.Insert(Read, a)
			}
			for _, a := range randAddrs(rng, 100) {
				s.Insert(Write, a)
			}
			for _, a := range randAddrs(rng, 2000) {
				p := s.PrepareProbe(a)
				for _, op := range []Op{Read, Write} {
					if got, want := s.ConflictProbe(op, &p), s.Conflict(op, a); got != want {
						t.Fatalf("ConflictProbe(%v, %v) = %v, Conflict = %v", op, a, got, want)
					}
				}
				if got, want := s.MemberProbe(Read, &p), s.ReadSet().MayContain(a); got != want {
					t.Fatalf("MemberProbe(Read, %v) = %v, ReadSet.MayContain = %v", a, got, want)
				}
				if got, want := s.MemberProbe(Write, &p), s.WriteSet().MayContain(a); got != want {
					t.Fatalf("MemberProbe(Write, %v) = %v, WriteSet.MayContain = %v", a, got, want)
				}
			}
		})
	}
}

// TestProbeZeroAlloc guards the probe hot path: preparing and testing a
// probe must not allocate for any concrete kind.
func TestProbeZeroAlloc(t *testing.T) {
	for _, c := range allocConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			s := MustSignature(c)
			for i := 0; i < 256; i++ {
				s.Insert(Write, addr.PAddr(i*addr.BlockBytes))
			}
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				a := addr.PAddr((i % 512) * addr.BlockBytes)
				p := s.PrepareProbe(a)
				_ = s.ConflictProbe(Read, &p)
				_ = s.ConflictProbe(Write, &p)
				i++
			}); n != 0 {
				t.Errorf("probe path allocated %.1f/op, want 0", n)
			}
		})
	}
}

// BenchmarkInsert times the Insert loop per filter kind (the undo-log
// walk / summary-rebuild pattern: dozens of blocks back to back into one
// filter).
func BenchmarkInsert(b *testing.B) {
	as := make([]addr.PAddr, 64)
	for i := range as {
		as[i] = addr.PAddr(i * 17 * addr.BlockBytes)
	}
	for _, c := range allocConfigs() {
		f := mustFilter(c)
		b.Run(c.String()+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, a := range as {
					f.Insert(a)
				}
			}
		})
	}
}

// BenchmarkMayContain compares scalar membership against the prepared-
// probe path per filter kind, in the broadcast shape the simulator runs:
// one address tested against many same-geometry filters.
func BenchmarkMayContain(b *testing.B) {
	const filters = 32 // Contexts on the default machine
	for _, c := range allocConfigs() {
		fs := make([]Filter, filters)
		for i := range fs {
			fs[i] = mustFilter(c)
			for j := 0; j < 256; j++ {
				fs[i].Insert(addr.PAddr((i + j*31) * addr.BlockBytes))
			}
		}
		b.Run(c.String()+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				a := addr.PAddr((i % 4096) * addr.BlockBytes)
				for _, f := range fs {
					if f.MayContain(a) {
						hits++
					}
				}
			}
			_ = hits
		})
		b.Run(c.String()+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				a := addr.PAddr((i % 4096) * addr.BlockBytes)
				p := PrepareProbe(fs[0], a)
				for _, f := range fs {
					if TestProbe(f, &p) {
						hits++
					}
				}
			}
			_ = hits
		})
	}
}
