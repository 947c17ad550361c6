package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		f := Frame{Op: OpEstimate, ID: 0xDEADBEEFCAFE, Payload: p}
		raw := AppendFrame(nil, f)
		got, _, err := ReadFrame(bytes.NewReader(raw), MaxPayload, nil)
		if err != nil {
			t.Fatalf("payload len %d: %v", len(p), err)
		}
		if got.Op != f.Op || got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
		}
	}
}

// TestFramePipelining pins that many frames written back to back read
// out in order with their ids intact — the property pipelining rests on.
func TestFramePipelining(t *testing.T) {
	var buf bytes.Buffer
	for id := uint64(1); id <= 100; id++ {
		buf.Write(AppendFrame(nil, Frame{Op: OpPing, ID: id, Payload: []byte{byte(id)}}))
	}
	var scratch []byte
	for id := uint64(1); id <= 100; id++ {
		var f Frame
		var err error
		f, scratch, err = ReadFrame(&buf, MaxPayload, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		if f.ID != id || len(f.Payload) != 1 || f.Payload[0] != byte(id) {
			t.Fatalf("frame %d came back as %+v", id, f)
		}
	}
	if _, _, err := ReadFrame(&buf, MaxPayload, scratch); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	good := AppendFrame(nil, Frame{Op: OpIngest, ID: 7, Payload: []byte("payload")})

	corrupt := func(mut func(b []byte)) error {
		b := append([]byte(nil), good...)
		mut(b)
		_, _, err := ReadFrame(bytes.NewReader(b), MaxPayload, nil)
		return err
	}

	if err := corrupt(func(b []byte) { b[0] = 'X' }); !errors.Is(err, ErrMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if err := corrupt(func(b []byte) { b[2] = 99 }); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
	if err := corrupt(func(b []byte) { b[12] = 0xFF }); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized length: %v", err)
	}
	// A bit flip anywhere in the payload or header body trips the CRC.
	if err := corrupt(func(b []byte) { b[HeaderSize] ^= 0x01 }); !errors.Is(err, ErrChecksum) {
		t.Errorf("payload bit flip: %v", err)
	}
	if err := corrupt(func(b []byte) { b[5] ^= 0x80 }); !errors.Is(err, ErrChecksum) {
		t.Errorf("id bit flip: %v", err)
	}
	// Every protocol error is also ErrProtocol.
	for _, sentinel := range []error{ErrMagic, ErrVersion, ErrTooLarge, ErrChecksum, ErrUnknownOp, ErrMalformed} {
		if !errors.Is(sentinel, ErrProtocol) {
			t.Errorf("%v does not match ErrProtocol", sentinel)
		}
	}

	// Truncation at every byte boundary: clean EOF only at offset 0,
	// ErrUnexpectedEOF (never a hang or panic) anywhere inside.
	for cut := 0; cut < len(good); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(good[:cut]), MaxPayload, nil)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0: %v, want io.EOF", err)
			}
			continue
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// A reader-side payload bound below the frame's length refuses it.
	if _, _, err := ReadFrame(bytes.NewReader(good), 3, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("reader bound: %v", err)
	}
}

// TestReadFrameGrowsAsBytesArrive pins that a declared length pins no
// memory the peer has not sent: a header declaring a MaxPayload frame,
// then EOF, leaves ReadFrame's buffer under 2 MiB. A frame several
// growth steps long still reads back whole.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	hdr := AppendFrame(nil, Frame{Op: OpSnapshotFetch | RespFlag, ID: 1})[:HeaderSize]
	binary.BigEndian.PutUint32(hdr[12:16], MaxPayload)
	_, buf, err := ReadFrame(bytes.NewReader(hdr), MaxPayload, nil)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header then EOF: %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(buf) >= 2<<20 {
		t.Fatalf("header alone grew the buffer to %d bytes", cap(buf))
	}

	payload := make([]byte, 2*readStep+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	raw := AppendFrame(nil, Frame{Op: OpSnapshotFetch | RespFlag, ID: 2, Payload: payload})
	f, _, err := ReadFrame(bytes.NewReader(raw), MaxPayload, buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 2 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("multi-step frame read back id %d, %d payload bytes", f.ID, len(f.Payload))
	}
}

func TestMessageRoundTrips(t *testing.T) {
	meta := Meta{TimeoutMs: 1500, Retry: 2}

	est := EstimateReq{Meta: meta, Tenant: "acme", Attr: "price", Lo: 0.25, Hi: 0.75, Fresh: true}
	if got, err := DecodeEstimateReqView(est.Append(nil)); err != nil || viewReq(got) != est {
		t.Fatalf("EstimateReq: %+v, %v", got, err)
	}

	res := EstimateRes{Selectivity: 0.5, Rows: 123.25, Generation: 9, Rung: "snapshot", Degraded: true}
	if got, err := DecodeEstimateRes(res.Append(nil)); err != nil || got != res {
		t.Fatalf("EstimateRes: %+v, %v", got, err)
	}

	batch := EstimateBatchReq{Meta: meta, Tenant: "t", Attr: "a", Fresh: false,
		Queries: []Range{{0, 1}, {0.1, 0.9}, {math.Inf(-1), math.NaN()}}}
	gotB, _, err := DecodeEstimateBatchReqView(batch.Append(nil), 0, nil)
	if err != nil || len(gotB.Queries) != 3 || string(gotB.Tenant) != "t" || gotB.Meta != meta {
		t.Fatalf("EstimateBatchReq: %+v, %v", gotB, err)
	}
	// NaN round-trips bit-exactly through Float64bits.
	if !math.IsNaN(gotB.Queries[2].Hi) || !math.IsInf(gotB.Queries[2].Lo, -1) {
		t.Fatalf("non-finite floats mangled: %+v", gotB.Queries[2])
	}

	batchRes := EstimateBatchRes{Results: []EstimateRes{res, {Rung: "uniform"}}}
	gotBR, err := DecodeEstimateBatchRes(batchRes.Append(nil))
	if err != nil || len(gotBR.Results) != 2 || gotBR.Results[0] != res {
		t.Fatalf("EstimateBatchRes: %+v, %v", gotBR, err)
	}

	ing := IngestReq{Meta: meta, Tenant: "acme", Attr: "price", Values: []float64{1, 2, 3.5}}
	gotI, err := DecodeIngestReq(ing.Append(nil), 0)
	if err != nil || len(gotI.Values) != 3 || gotI.Values[2] != 3.5 {
		t.Fatalf("IngestReq: %+v, %v", gotI, err)
	}

	ir := IngestRes{Queued: 64, Shed: 3}
	if got, err := DecodeIngestRes(ir.Append(nil)); err != nil || got != ir {
		t.Fatalf("IngestRes: %+v, %v", got, err)
	}

	ca := CreateAttrReq{Meta: meta, Tenant: "acme", Attr: "price", Config: []byte(`{"domain_lo":0,"domain_hi":1}`)}
	gotC, err := DecodeCreateAttrReq(ca.Append(nil))
	if err != nil || gotC.Tenant != "acme" || !bytes.Equal(gotC.Config, ca.Config) {
		t.Fatalf("CreateAttrReq: %+v, %v", gotC, err)
	}

	ping := PingReq{Meta: meta}
	if got, err := DecodePingReq(ping.Append(nil)); err != nil || got != ping {
		t.Fatalf("PingReq: %+v, %v", got, err)
	}

	er := ErrorRes{Code: 4, RetryAfterMs: 2500, Message: "tenant over quota"}
	if got, err := DecodeErrorRes(er.Append(nil)); err != nil || got != er {
		t.Fatalf("ErrorRes: %+v, %v", got, err)
	}
}

// TestMessageBounds pins the decoder-side limits: batch/value counts
// beyond the caller's bound refuse before allocating, and truncated
// payloads are ErrMalformed.
func TestMessageBounds(t *testing.T) {
	big := EstimateBatchReq{Tenant: "t", Attr: "a",
		Queries: make([]Range, 100)}
	if _, _, err := DecodeEstimateBatchReqView(big.Append(nil), 10, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("batch over bound: %v", err)
	}
	ing := IngestReq{Tenant: "t", Attr: "a", Values: make([]float64, 100)}
	if _, err := DecodeIngestReq(ing.Append(nil), 10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ingest over bound: %v", err)
	}

	full := EstimateReq{Tenant: "tenant", Attr: "attr", Lo: 0, Hi: 1}.Append(nil)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeEstimateReqView(full[:cut]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("estimate cut %d: %v, want ErrMalformed", cut, err)
		}
	}
	fullB := EstimateBatchReq{Tenant: "t", Attr: "a", Queries: make([]Range, 3)}.Append(nil)
	for cut := 0; cut < len(fullB); cut++ {
		if _, _, err := DecodeEstimateBatchReqView(fullB[:cut], 0, nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("batch cut %d: %v, want ErrMalformed", cut, err)
		}
	}
	// Trailing bytes are tolerated (tail-growth versioning rule).
	if _, err := DecodeEstimateReqView(append(full, 0xAA, 0xBB)); err != nil {
		t.Errorf("trailing bytes must be ignored: %v", err)
	}
}

// viewReq copies a decoded view back into the request it encodes.
func viewReq(v EstimateReqView) EstimateReq {
	return EstimateReq{Meta: v.Meta, Tenant: string(v.Tenant), Attr: string(v.Attr), Lo: v.Lo, Hi: v.Hi, Fresh: v.Fresh}
}

// viewBatchReq copies a decoded batch view back into the request it
// encodes.
func viewBatchReq(v EstimateBatchReqView) EstimateBatchReq {
	return EstimateBatchReq{Meta: v.Meta, Tenant: string(v.Tenant), Attr: string(v.Attr), Fresh: v.Fresh, Queries: v.Queries}
}

func TestOpNames(t *testing.T) {
	if !OpEstimate.IsRequest() || !OpPing.IsRequest() {
		t.Error("request opcodes misclassified")
	}
	if OpError.IsRequest() || (OpEstimate | RespFlag).IsRequest() {
		t.Error("non-request opcodes misclassified")
	}
	if s := (OpEstimate | RespFlag).String(); s != "estimate_resp" {
		t.Errorf("response opcode name %q", s)
	}
	if s := Op(0x42).String(); s != "op(0x42)" {
		t.Errorf("unknown opcode name %q", s)
	}
}
