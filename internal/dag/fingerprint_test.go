package dag

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func TestFingerprintStableAndSensitive(t *testing.T) {
	build := func() *DAG {
		d := New(4)
		d.AddEdge(0, 1, 2)
		d.AddEdge(1, 3, 1)
		d.AddEdge(2, 3, 5)
		d.SetWeight(2, 7)
		return d
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical DAGs fingerprint differently")
	}
	fp := a.Fingerprint()
	if a.Fingerprint() != fp {
		t.Fatal("fingerprint not idempotent")
	}

	w := build()
	w.SetWeight(0, 9)
	if w.Fingerprint() == fp {
		t.Error("weight change not reflected in fingerprint")
	}
	e := build()
	e.AddEdge(0, 2, 1)
	if e.Fingerprint() == fp {
		t.Error("extra edge not reflected in fingerprint")
	}
	n := build()
	n.SetName(1, "renamed")
	if n.Fingerprint() == fp {
		t.Error("rename not reflected in fingerprint")
	}
	cw := build()
	cw.Edges[0].Weight = 3
	if cw.Fingerprint() == fp {
		t.Error("edge weight change not reflected in fingerprint")
	}
}

func TestEqual(t *testing.T) {
	a := New(3)
	a.AddEdge(0, 1, 2)
	a.AddEdge(1, 2, 1)
	b := New(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 1)
	if !a.Equal(b) || !a.Equal(a) {
		t.Fatal("structurally identical DAGs not Equal")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil) true")
	}
	c := New(3)
	c.AddEdge(0, 1, 2)
	if a.Equal(c) {
		t.Error("different edge counts Equal")
	}
	d := New(3)
	d.AddEdge(0, 1, 2)
	d.AddEdge(1, 2, 9)
	if a.Equal(d) {
		t.Error("different edge weight Equal")
	}
	e := New(3)
	e.AddEdge(0, 1, 2)
	e.AddEdge(1, 2, 1)
	e.SetWeight(0, 5)
	if a.Equal(e) {
		t.Error("different task weight Equal")
	}
}

// goldenDAGs are the fixed inputs whose digests are pinned below: a small
// named graph and a 1,000-task tree.
func goldenDAGs() (small, big *DAG) {
	small = New(4)
	small.AddEdge(0, 1, 2)
	small.AddEdge(1, 3, 1)
	small.AddEdge(2, 3, 5)
	small.SetWeight(2, 7)
	small.SetName(1, "renamed-é")
	big = New(1000)
	for i := 1; i < 1000; i++ {
		big.AddEdge(i/2, i, int64(i%17))
		big.SetWeight(i, int64(i*31%97+1))
	}
	return small, big
}

// fnvFingerprint is the reference encoding of Fingerprint over hash/fnv:
// every word little-endian, every name NUL-terminated.
func fnvFingerprint(d *DAG) uint64 {
	h := fnv.New64a()
	u64 := func(x uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	u64(uint64(len(d.Tasks)))
	for _, t := range d.Tasks {
		u64(uint64(t.Weight))
		h.Write([]byte(t.Name))
		h.Write([]byte{0})
	}
	u64(uint64(len(d.Edges)))
	for _, e := range d.Edges {
		u64(uint64(e.From))
		u64(uint64(e.To))
		u64(uint64(e.Weight))
	}
	return h.Sum64()
}

// TestFingerprintGolden pins the digests: cache-tier keys cross process
// boundaries, so the inline FNV-1a must equal hash/fnv's New64a over the
// same bytes, and the values must never change.
func TestFingerprintGolden(t *testing.T) {
	small, big := goldenDAGs()
	for _, c := range []struct {
		name string
		d    *DAG
		want uint64
	}{{"small", small, 0x39d2fc2713817ebc}, {"big", big, 0x178caf0b03b8236a}} {
		if got := c.d.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint = %#x, want %#x", c.name, got, c.want)
		}
		if ref := fnvFingerprint(c.d); ref != c.want {
			t.Errorf("%s: hash/fnv reference = %#x, want %#x", c.name, ref, c.want)
		}
	}

	h := NewHash()
	h.U64(0)
	h.U64(^uint64(0))
	h.I64(-42)
	h.Str("")
	h.Str("cawosched\x00z")
	h.U64(1 << 63)
	ref := fnv.New64a()
	for _, b := range [][]byte{
		make([]byte, 8), bytes.Repeat([]byte{0xff}, 8),
		binary.LittleEndian.AppendUint64(nil, uint64(0xffffffffffffffd6)),
		{0}, []byte("cawosched\x00z\x00"),
		binary.LittleEndian.AppendUint64(nil, 1<<63),
	} {
		ref.Write(b)
	}
	if got, want := h.Sum64(), uint64(0xf6a7fbb408301011); got != want || ref.Sum64() != want {
		t.Errorf("Hash = %#x, hash/fnv = %#x, want %#x", got, ref.Sum64(), want)
	}
}

// TestFingerprintAllocs: fingerprinting allocates nothing.
func TestFingerprintAllocs(t *testing.T) {
	_, big := goldenDAGs()
	if allocs := testing.AllocsPerRun(20, func() { big.Fingerprint() }); allocs != 0 {
		t.Errorf("Fingerprint: %v allocs per call, want 0", allocs)
	}
}
