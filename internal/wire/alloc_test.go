// Allocation-regression pins for the frame codec (ISSUE 10 satellite 3):
// the building blocks of the server's inline fast path and the client's
// pooled writer must stay allocation-free when their buffers are reused,
// or the zero-alloc round-trip contract silently rots.
package wire

import (
	"bytes"
	"testing"
)

func testEstimatePayload() []byte {
	return EstimateReq{
		Meta:   Meta{TimeoutMs: 250},
		Tenant: "acme",
		Attr:   "price",
		Lo:     0.25,
		Hi:     0.75,
	}.Append(nil)
}

func TestAppendFrameZeroAllocs(t *testing.T) {
	f := Frame{Op: OpEstimate, ID: 7, Payload: testEstimatePayload()}
	buf := AppendFrame(nil, f) // warm the scratch to capacity
	if a := testing.AllocsPerRun(200, func() {
		buf = AppendFrame(buf[:0], f)
	}); a != 0 {
		t.Fatalf("AppendFrame into warm scratch allocates %v/op, want 0", a)
	}
}

func TestReadFrameReusedBufZeroAllocs(t *testing.T) {
	raw := AppendFrame(nil, Frame{Op: OpEstimate, ID: 7, Payload: testEstimatePayload()})
	r := bytes.NewReader(raw)
	var buf []byte
	var err error
	if _, buf, err = ReadFrame(r, MaxPayload, buf); err != nil { // warm buf
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		r.Reset(raw)
		_, buf, err = ReadFrame(r, MaxPayload, buf)
		if err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("ReadFrame with reused buf allocates %v/op, want 0", a)
	}
}

func TestDecodeEstimateReqViewZeroAllocs(t *testing.T) {
	p := testEstimatePayload()
	if a := testing.AllocsPerRun(200, func() {
		v, err := DecodeEstimateReqView(p)
		if err != nil || string(v.Tenant) != "acme" {
			t.Fatalf("view decode: %+v, %v", v, err)
		}
	}); a != 0 {
		t.Fatalf("DecodeEstimateReqView allocates %v/op, want 0", a)
	}
}

func TestDecodeEstimateBatchReqViewZeroAllocs(t *testing.T) {
	queries := make([]Range, 16)
	for i := range queries {
		queries[i] = Range{Lo: float64(i) / 32, Hi: 0.5 + float64(i)/32}
	}
	p := EstimateBatchReq{Tenant: "acme", Attr: "price", Queries: queries}.Append(nil)
	var scratch []Range
	var err error
	if _, scratch, err = DecodeEstimateBatchReqView(p, 0, scratch); err != nil { // warm scratch
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		var v EstimateBatchReqView
		v, scratch, err = DecodeEstimateBatchReqView(p, 0, scratch)
		if err != nil || len(v.Queries) != 16 {
			t.Fatalf("batch view decode: %+v, %v", v, err)
		}
	}); a != 0 {
		t.Fatalf("DecodeEstimateBatchReqView with warm scratch allocates %v/op, want 0", a)
	}
}
