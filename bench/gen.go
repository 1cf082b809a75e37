package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The op generator is owned by the benchmark so the inputs are frozen with
// it: splitmix64 for randomness, a YCSB-style zipfian or a hot/cold chooser
// for ranks, a multiplicative scramble so hot ranks do not share pages, and
// a three-way mix. The program under test receives only keys and values.

// rng is splitmix64.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix64(uint64(*r))
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is splitmix64's finalizer, used alone as a stateless hash.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "scan"}

// op packs one generated operation: kind in the top two bits, key id below.
type op uint64

func makeOp(k opKind, id uint64) op { return op(uint64(k)<<62 | id) }
func (o op) kind() opKind           { return opKind(o >> 62) }
func (o op) id() uint64             { return uint64(o) & (1<<62 - 1) }

// distKind selects how ranks are drawn.
type distKind int

const (
	// distZipf draws ranks zipfian with θ = 0.99.
	distZipf distKind = iota
	// distHotCold sends 80 % of accesses to 20 % of the keys.
	distHotCold
)

const zipfTheta = 0.99

// mix is the share of Puts and Scans; the rest are Gets.
type mix struct{ put, scan float64 }

// streamSpec describes one workload's op stream.
type streamSpec struct {
	keys int
	dist distKind
	mix  mix
}

// zipf is the Gray et al. generator YCSB uses: O(keys) set-up, O(1) draw.
type zipf struct {
	n, alpha, zetan, eta, second float64
}

func newZipf(n int) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), zipfTheta)
	}
	second := math.Pow(0.5, zipfTheta)
	return &zipf{
		n:      float64(n),
		alpha:  1 / (1 - zipfTheta),
		zetan:  zetan,
		eta:    (1 - math.Pow(2/float64(n), 1-zipfTheta)) / (1 - (1+second)/zetan),
		second: second,
	}
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.second {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scramblePrime is coprime with every keyspace size used (a prime above
// 2^31), so rank*prime mod keys is a bijection on [0, keys).
const scramblePrime = 2654435761

// stream generates a workload's op rings; the zipfian table is built once.
type stream struct {
	spec streamSpec
	z    *zipf
}

func newStream(spec streamSpec) *stream {
	s := &stream{spec: spec}
	if spec.dist == distZipf {
		s.z = newZipf(spec.keys)
	}
	return s
}

// ops fills one worker's op ring. Each worker draws from its own sub-seed.
// Puts are folded onto the worker's own residue class of key ids, so two
// in-flight writes never name one key and the TC's first-committer-wins
// rule never fires: on these workloads a conflict is a failure.
func (s *stream) ops(seed uint64, worker, workers, n int) []op {
	spec, z := s.spec, s.z
	r := rng(mix64(seed*0x9e3779b97f4a7c15 + uint64(worker) + 1))
	keys := uint64(spec.keys)
	offset := mix64(seed) % keys
	hot := keys / 5
	ops := make([]op, n)
	for i := range ops {
		var rank uint64
		switch spec.dist {
		case distZipf:
			rank = z.rank(r.float())
		case distHotCold:
			if r.float() < 0.8 {
				rank = r.next() % hot
			} else {
				rank = hot + r.next()%(keys-hot)
			}
		}
		if rank >= keys {
			rank = keys - 1
		}
		id := (rank*scramblePrime + offset) % keys
		kind := opGet
		switch u := r.float(); {
		case u < spec.mix.put:
			kind = opPut
			id = id - id%uint64(workers) + uint64(worker)
			if id >= keys {
				id -= uint64(workers)
			}
		case u < spec.mix.put+spec.mix.scan:
			// A scan's cost grows with how much of the keyspace lies above
			// its start, so starts are uniform: with zipfian starts the
			// seed would decide, through where its few hot keys fall, how
			// much the scans read.
			kind = opScan
			id = r.next() % keys
		}
		ops[i] = makeOp(kind, id)
	}
	return ops
}

// streamHash fingerprints an op ring (FNV-1a over the packed words).
func streamHash(ops []op) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range ops {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (uint64(o) >> s & 0xff)) * 1099511628211
		}
	}
	return h
}

const (
	keyLen = 8
	valLen = 100
	// userBytes is the user data one live key carries.
	userBytes = keyLen + valLen
)

func putKey(dst []byte, id uint64) { binary.BigEndian.PutUint64(dst, id) }

// fillValue writes the self-describing value of (id, seq) into dst:
// [8 B key id][8 B seq][pattern of (id, seq)].
func fillValue(dst []byte, id, seq uint64) {
	binary.BigEndian.PutUint64(dst[0:], id)
	binary.BigEndian.PutUint64(dst[8:], seq)
	base := mix64(id ^ seq*0x9e3779b97f4a7c15)
	var word [8]byte
	for i, k := 16, uint64(0); i < len(dst); i, k = i+8, k+1 {
		binary.LittleEndian.PutUint64(word[:], mix64(base+k))
		copy(dst[i:], word[:])
	}
}

// checkValue verifies that v is a value some writer produced for key id.
func checkValue(v []byte, id uint64) error {
	if len(v) != valLen {
		return fmt.Errorf("key %d: value has %d bytes, want %d", id, len(v), valLen)
	}
	if got := binary.BigEndian.Uint64(v); got != id {
		return fmt.Errorf("key %d: value belongs to key %d", id, got)
	}
	var want [valLen]byte
	fillValue(want[:], id, binary.BigEndian.Uint64(v[8:]))
	if string(want[:]) != string(v) {
		return fmt.Errorf("key %d: value pattern is damaged", id)
	}
	return nil
}
