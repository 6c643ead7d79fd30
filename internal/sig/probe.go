package sig

import "logtmse/internal/addr"

// A Probe is one block address's membership query with the hash work
// precomputed: the bit indices (word offset + mask) for the vector
// filters, the key and unmasked hash for Perfect. A coherence request
// tests the same address against every context's read and write filters
// — all built from one Config, hence one geometry — so preparing the
// probe once and testing it word-level against each filter amortizes the
// multiply/shift/mask across the whole scan.
//
// TestProbe(f, p) equals f.MayContain(a) for the address p was prepared
// from, provided f has the geometry of the filter given to PrepareProbe.
type Probe struct {
	kind Kind
	k    int          // precomputed index count (1 BS/CBS, 2 DBS, k H3)
	key  uint64       // Perfect: block key (block address + 1)
	hash uint64       // Perfect: unmasked hash of key
	a    addr.PAddr   // fallback for unknown filter implementations
	word [maxK]uint32 // bit-vector word offsets
	mask [maxK]uint64 // bit masks within those words
}

const maxK = len(h3Consts)

func (p *Probe) put(i int, bit uint64) {
	p.word[i] = uint32(bit / 64)
	p.mask[i] = 1 << (bit % 64)
}

// PrepareProbe computes a's probe for ref's filter geometry. Any filter
// built from the same Config prepares the identical probe.
func PrepareProbe(ref Filter, a addr.PAddr) Probe {
	p := Probe{kind: ref.Kind(), a: a}
	switch s := ref.(type) {
	case *perfect:
		p.key = uint64(a.Block()) + 1
		p.hash = p.key * 0x9E3779B97F4A7C15 >> 32
	case *bitSelect:
		p.k = 1
		p.put(0, s.index(a))
	case *doubleBitSelect:
		p.k = 2
		lo, hi := s.idx(a)
		p.put(0, lo)
		p.put(1, hi)
	case *h3:
		p.k = s.k
		for i := 0; i < s.k; i++ {
			p.put(i, s.idx(a, i))
		}
	}
	return p
}

// TestProbe is MayContain over a prepared probe: a word load and mask
// per bank instead of re-deriving the indices.
func TestProbe(f Filter, p *Probe) bool {
	switch s := f.(type) {
	case *perfect:
		if s.n == 0 {
			return false
		}
		mask := uint64(len(s.keys) - 1)
		for i := p.hash & mask; ; i = (i + 1) & mask {
			switch s.keys[i] {
			case p.key:
				return true
			case 0:
				return false
			}
		}
	case *bitSelect:
		return s.bitsVec[p.word[0]]&p.mask[0] != 0
	case *doubleBitSelect:
		return s.lo[p.word[0]]&p.mask[0] != 0 && s.hi[p.word[1]]&p.mask[1] != 0
	case *h3:
		for i := 0; i < p.k; i++ {
			if s.bitsVec[p.word[i]]&p.mask[i] == 0 {
				return false
			}
		}
		return true
	default:
		return f.MayContain(p.a)
	}
}

// ConflictProbe is Signature.Conflict over a prepared probe; both halves
// share the probe because they share a geometry.
func (s *Signature) ConflictProbe(o Op, p *Probe) bool {
	if o == Read {
		return TestProbe(s.write, p)
	}
	return TestProbe(s.read, p) || TestProbe(s.write, p)
}

// MemberProbe is Filter.MayContain on one half over a prepared probe.
func (s *Signature) MemberProbe(o Op, p *Probe) bool {
	if o == Read {
		return TestProbe(s.read, p)
	}
	return TestProbe(s.write, p)
}

// PrepareProbe computes a's probe for this signature's geometry.
func (s *Signature) PrepareProbe(a addr.PAddr) Probe {
	return PrepareProbe(s.read, a)
}
