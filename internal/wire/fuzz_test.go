package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzWireCodec throws arbitrary bytes at the frame reader and every
// payload decoder and pins the codec contract (ISSUE satellite 4):
// truncations, bit flips, hostile length prefixes, unknown opcodes —
// whatever the fuzzer finds — yield a typed error or a valid frame,
// never a panic, a hang, or an unbounded allocation. Frames that do
// decode must re-encode to the identical byte string (the codec is
// canonical), so the server can trust a decoded frame completely.
func FuzzWireCodec(f *testing.F) {
	// Seed with one well-formed frame per opcode plus assorted cripples.
	meta := Meta{TimeoutMs: 100, Retry: 1}
	seedFrames := []Frame{
		{Op: OpEstimate, ID: 1, Payload: EstimateReq{Meta: meta, Tenant: "t", Attr: "a", Lo: 0, Hi: 1}.Append(nil)},
		{Op: OpEstimateBatch, ID: 2, Payload: EstimateBatchReq{Meta: meta, Tenant: "t", Attr: "a", Queries: []Range{{0, 1}}}.Append(nil)},
		{Op: OpIngest, ID: 3, Payload: IngestReq{Meta: meta, Tenant: "t", Attr: "a", Values: []float64{1, 2}}.Append(nil)},
		{Op: OpCreateAttr, ID: 4, Payload: CreateAttrReq{Meta: meta, Tenant: "t", Attr: "a", Config: []byte("{}")}.Append(nil)},
		{Op: OpPing, ID: 5, Payload: PingReq{Meta: meta}.Append(nil)},
		{Op: OpError, ID: 6, Payload: ErrorRes{Code: 4, RetryAfterMs: 10, Message: "m"}.Append(nil)},
	}
	for _, fr := range seedFrames {
		f.Add(AppendFrame(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x4C, 1, 0xFF})
	f.Add(bytes.Repeat([]byte{0x53}, 64))

	// The fuzz bound keeps hostile length prefixes from asking the
	// reader for gigabytes per exec.
	const maxFuzzPayload = 1 << 16

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := ReadFrame(bytes.NewReader(data), maxFuzzPayload, nil)
		if err != nil {
			// Must be a typed framing error or a clean/truncated EOF.
			if !errors.Is(err, ErrProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		// A frame that read back must be canonical: re-encoding it
		// reproduces the exact bytes consumed.
		n := HeaderSize + len(fr.Payload) + TrailerSize
		if !bytes.Equal(AppendFrame(nil, fr), data[:n]) {
			t.Fatalf("decode/encode not canonical for %d-byte frame", n)
		}

		// Every payload decoder must hold against this payload, whatever
		// the opcode claims it is: typed error or success, never a panic.
		mustTyped := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s: untyped decode error: %v", what, err)
			}
		}
		p := fr.Payload
		if v, err := DecodeEstimateReqView(p); err == nil {
			// Byte-level round-trip (NaN-safe: floats compare as bits).
			enc := viewReq(v).Append(nil)
			got, err2 := DecodeEstimateReqView(enc)
			if err2 != nil || !bytes.Equal(viewReq(got).Append(nil), enc) {
				t.Fatalf("EstimateReq re-encode mismatch (%v)", err2)
			}
		} else {
			mustTyped("EstimateReq", err)
		}
		if v, _, err := DecodeEstimateBatchReqView(p, 4096, nil); err == nil {
			enc := viewBatchReq(v).Append(nil)
			got, _, err2 := DecodeEstimateBatchReqView(enc, 4096, nil)
			if err2 != nil || !bytes.Equal(viewBatchReq(got).Append(nil), enc) {
				t.Fatalf("EstimateBatchReq re-encode mismatch (%v)", err2)
			}
		} else {
			mustTyped("EstimateBatchReq", err)
		}
		_, err = DecodeIngestReq(p, 4096)
		mustTyped("IngestReq", err)
		_, err = DecodeCreateAttrReq(p)
		mustTyped("CreateAttrReq", err)
		_, err = DecodePingReq(p)
		mustTyped("PingReq", err)
		_, err = DecodeErrorRes(p)
		mustTyped("ErrorRes", err)
		_, err = DecodeEstimateRes(p)
		mustTyped("EstimateRes", err)
		_, err = DecodeEstimateBatchRes(p)
		mustTyped("EstimateBatchRes", err)
		_, err = DecodeIngestRes(p)
		mustTyped("IngestRes", err)
	})
}
