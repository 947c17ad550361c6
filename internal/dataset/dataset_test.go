package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"selest/internal/stats"
)

func TestUniformFile(t *testing.T) {
	f := UniformFile(15, 10000, 1)
	lo, hi := f.Domain()
	if lo != 0 || hi != math.Pow(2, 15)-1 {
		t.Fatalf("domain = [%v, %v]", lo, hi)
	}
	if f.Len() != 10000 {
		t.Fatalf("Len = %d", f.Len())
	}
	for _, v := range f.Records {
		if v < lo || v > hi || v != math.Trunc(v) {
			t.Fatalf("record %v not an integer in the domain", v)
		}
	}
	// Rough uniformity: mean near domain centre.
	m := stats.Mean(f.Records)
	if math.Abs(m-hi/2) > hi*0.02 {
		t.Fatalf("uniform mean = %v, want ~%v", m, hi/2)
	}
	if f.Truth == nil {
		t.Fatal("synthetic file must carry its truth distribution")
	}
}

func TestNormalFileCentredAndTruncated(t *testing.T) {
	f := NormalFile(15, 20000, 2)
	_, hi := f.Domain()
	m := stats.Mean(f.Records)
	if math.Abs(m-hi/2) > hi*0.02 {
		t.Fatalf("normal mean = %v, want domain centre %v", m, hi/2)
	}
	for _, v := range f.Records {
		if v < 0 || v > hi {
			t.Fatalf("record %v outside domain", v)
		}
	}
}

func TestExponentialFileSkew(t *testing.T) {
	f := ExponentialFile(15, 20000, 3)
	_, hi := f.Domain()
	// Skew: median far below the domain centre.
	sorted := append([]float64(nil), f.Records...)
	sort.Float64s(sorted)
	med := stats.QuantileSorted(sorted, 0.5)
	if med > hi/4 {
		t.Fatalf("exponential median = %v, want far-left skew (< %v)", med, hi/4)
	}
}

func TestRealStandInsClumpy(t *testing.T) {
	// The spatial stand-ins must be strongly non-uniform: the top decile
	// of 100 equal cells should hold far more than 10% of the records.
	for _, f := range []*File{ArapFile(1, 4), ArapFile(2, 4), RRFile(1, 12, 4)} {
		_, hi := f.Domain()
		cells := make([]int, 100)
		for _, v := range f.Records {
			i := int(v / (hi + 1) * 100)
			if i >= 100 {
				i = 99
			}
			cells[i]++
		}
		sort.Sort(sort.Reverse(sort.IntSlice(cells)))
		top10 := 0
		for _, c := range cells[:10] {
			top10 += c
		}
		frac := float64(top10) / float64(f.Len())
		if frac < 0.3 {
			t.Fatalf("%s: top-decile cells hold only %v of mass; not clumpy", f.Name, frac)
		}
	}
}

func TestIWHeavyDuplicates(t *testing.T) {
	f := IWFile(5)
	if f.Len() != 199523 {
		t.Fatalf("iw record count = %d, want 199523 (Table 2)", f.Len())
	}
	distinct := make(map[float64]bool)
	for _, v := range f.Records {
		distinct[v] = true
	}
	// ~1,500 distinct values over ~200k records: >100 duplicates per value.
	if len(distinct) > 2000 {
		t.Fatalf("iw has %d distinct values; expected heavy duplication", len(distinct))
	}
}

func TestCatalogMatchesTable2(t *testing.T) {
	files := Catalog(DefaultSeed)
	want := map[string]int{
		"u(15)": 100000, "u(20)": 100000,
		"n(10)": 100000, "n(15)": 100000, "n(20)": 100000,
		"e(15)": 100000, "e(20)": 100000,
		"arap1": 52120, "arap2": 52120,
		"rr1(12)": 257942, "rr1(22)": 257942,
		"rr2(12)": 257942, "rr2(22)": 257942,
		"iw": 199523,
	}
	if len(files) != len(want) {
		t.Fatalf("catalog has %d files, want %d", len(files), len(want))
	}
	wantP := map[string]int{
		"u(15)": 15, "u(20)": 20, "n(10)": 10, "n(15)": 15, "n(20)": 20,
		"e(15)": 15, "e(20)": 20, "arap1": 21, "arap2": 18,
		"rr1(12)": 12, "rr1(22)": 22, "rr2(12)": 12, "rr2(22)": 22, "iw": 21,
	}
	for _, f := range files {
		if n, ok := want[f.Name]; !ok || f.Len() != n {
			t.Errorf("%s: %d records, want %d", f.Name, f.Len(), want[f.Name])
		}
		if f.P != wantP[f.Name] {
			t.Errorf("%s: p=%d, want %d", f.Name, f.P, wantP[f.Name])
		}
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := Catalog(7)
	b := Catalog(7)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Len() != b[i].Len() {
			t.Fatalf("catalog metadata not deterministic at %d", i)
		}
		for j := range a[i].Records {
			if a[i].Records[j] != b[i].Records[j] {
				t.Fatalf("%s: record %d differs", a[i].Name, j)
			}
		}
	}
}

func TestByName(t *testing.T) {
	f, err := ByName("n(20)", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "n(20)" || f.P != 20 {
		t.Fatalf("ByName returned %s p=%d", f.Name, f.P)
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Fatal("unknown name should error")
	}
	// ByName must agree with Catalog for the same seed.
	cat := Catalog(DefaultSeed)
	var fromCat *File
	for _, c := range cat {
		if c.Name == "n(20)" {
			fromCat = c
		}
	}
	for i := range f.Records {
		if f.Records[i] != fromCat.Records[i] {
			t.Fatalf("ByName and Catalog disagree at record %d", i)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 14 || names[0] != "u(15)" || names[len(names)-1] != "iw" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := UniformFile(10, 1000, 6)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != f.Name || g.Description != f.Description || g.P != f.P || g.Len() != f.Len() {
		t.Fatalf("metadata mismatch: %+v vs %+v", g, f)
	}
	for i := range f.Records {
		if g.Records[i] != f.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a selest file at all"))); err == nil {
		t.Fatal("garbage should fail to load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail to load")
	}
	// Correct magic, bad version.
	var buf bytes.Buffer
	buf.Write(fileMagic[:])
	buf.Write([]byte{99, 0}) // version 99
	buf.Write(make([]byte, 32))
	if _, err := Load(&buf); err == nil {
		t.Fatal("bad version should fail to load")
	}
}

func TestSaveLoadFileOnDisk(t *testing.T) {
	f := NormalFile(10, 500, 7)
	path := t.TempDir() + "/n10.seld"
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 500 {
		t.Fatalf("loaded %d records", g.Len())
	}
	if _, err := LoadFile(t.TempDir() + "/missing.seld"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFileString(t *testing.T) {
	f := UniformFile(15, 100, 8)
	s := f.String()
	if s == "" || !bytes.Contains([]byte(s), []byte("u(15)")) {
		t.Fatalf("String = %q", s)
	}
}

// TestWriteFloatsMatchesBinaryWrite: WriteFloats writes the bytes
// binary.Write writes, at lengths around its chunk size and for signed
// zeros, infinities and NaN, and ReadFloats reads them back bit for bit.
func TestWriteFloatsMatchesBinaryWrite(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3*1024 + 5} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)*1.5 - 700
		}
		if n > 4 {
			xs[0], xs[1], xs[2], xs[3] = math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Inf(-1)
		}
		var got, want bytes.Buffer
		if err := WriteFloats(&got, xs); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(&want, binary.LittleEndian, xs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: WriteFloats bytes differ from binary.Write", n)
		}
		back, err := ReadFloats(&got, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(back, xs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("n=%d: round trip changed the values", n)
		}
	}
}
