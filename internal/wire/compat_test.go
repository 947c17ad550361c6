// The append-only compatibility pin. selestwire's versioning contract
// says a v1 client can always talk to a v1+n server: opcodes and error
// codes are append-only, payloads grow only at the tail, and the version
// byte gates everything else. Nothing enforces that contract but this
// table — a renumbered opcode would still pass every round-trip test,
// because both sides would agree on the wrong number. This test hardcodes
// every wire constant so renumbering breaks the build's test run, not a
// deployed fleet.
package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestWireCompatOpcodes pins the numeric value of every opcode ever
// shipped. Entries may be APPENDED when a new opcode lands; changing or
// removing one breaks deployed clients — don't.
func TestWireCompatOpcodes(t *testing.T) {
	frozen := []struct {
		op   Op
		num  byte
		name string
	}{
		{OpEstimate, 0x01, "estimate"},            // since v1 (PR 7)
		{OpEstimateBatch, 0x02, "estimate_batch"}, // since v1 (PR 7)
		{OpIngest, 0x03, "ingest"},                // since v1 (PR 7)
		{OpCreateAttr, 0x04, "create_attr"},       // since v1 (PR 7)
		{OpPing, 0x05, "ping"},                    // since v1 (PR 7)
		{OpSnapshotFetch, 0x06, "snapshot_fetch"}, // since v1 (PR 9)
		{RespFlag, 0x80, ""},
		{OpError, 0xFF, "error"},
	}
	for _, f := range frozen {
		if byte(f.op) != f.num {
			t.Errorf("opcode %s renumbered: 0x%02x, frozen at 0x%02x", f.name, byte(f.op), f.num)
		}
		if f.name != "" && f.op.String() != f.name {
			t.Errorf("opcode 0x%02x renamed: %q, frozen as %q", f.num, f.op.String(), f.name)
		}
	}
}

// TestWireCompatRequestSpace pins which opcodes are requests: exactly
// the contiguous block [OpEstimate, OpSnapshotFetch]. Appending the next
// opcode extends the block by one; leaving a gap or reusing a response
// bit breaks the serveConn dispatch gate.
func TestWireCompatRequestSpace(t *testing.T) {
	for op := Op(0); op < RespFlag; op++ {
		want := op >= 0x01 && op <= 0x06
		if op.IsRequest() != want {
			t.Errorf("Op(0x%02x).IsRequest() = %v, want %v", byte(op), op.IsRequest(), want)
		}
	}
	for _, op := range []Op{OpEstimate | RespFlag, OpPing | RespFlag, OpSnapshotFetch | RespFlag, OpError} {
		if op.IsRequest() {
			t.Errorf("response opcode 0x%02x classified as request", byte(op))
		}
	}
}

// TestWireCompatFraming pins the frame geometry: magic, version, header
// and trailer sizes, and the default payload bound. These four numbers
// are burned into every deployed binary.
func TestWireCompatFraming(t *testing.T) {
	if Magic != 0x534C {
		t.Errorf("Magic = 0x%04x, frozen at 0x534C", Magic)
	}
	if Version != 1 {
		t.Errorf("Version = %d, frozen at 1 (bump requires a negotiation story)", Version)
	}
	if HeaderSize != 16 || TrailerSize != 4 {
		t.Errorf("frame geometry %d+%d, frozen at 16+4", HeaderSize, TrailerSize)
	}
	if MaxPayload != 16<<20 {
		t.Errorf("MaxPayload = %d, frozen at 16 MiB", MaxPayload)
	}
}

// TestWireCompatVersionNegotiation pins the version rule: a reader
// rejects any version but its own with ErrVersion, on the first frame,
// before trusting anything else in the header.
func TestWireCompatVersionNegotiation(t *testing.T) {
	good := AppendFrame(nil, Frame{Op: OpPing, ID: 1, Payload: PingReq{}.Append(nil)})
	for _, v := range []byte{0, 2, 255} {
		bad := append([]byte(nil), good...)
		bad[2] = v // the version byte
		_, _, err := ReadFrame(bytes.NewReader(bad), MaxPayload, nil)
		if !errors.Is(err, ErrVersion) {
			t.Errorf("version %d accepted: err = %v, want ErrVersion", v, err)
		}
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("ErrVersion must remain an ErrProtocol child")
		}
	}
}

// TestWireCompatTailGrowth pins the payload-growth rule: a decoder must
// ignore bytes past the fields it knows, so a same-version payload can
// grow at the tail without breaking old readers.
func TestWireCompatTailGrowth(t *testing.T) {
	grown := append(EstimateReq{Tenant: "t", Attr: "a", Lo: 0.1, Hi: 0.9}.Append(nil),
		0xDE, 0xAD, 0xBE, 0xEF) // a future field this version doesn't know
	req, err := DecodeEstimateReqView(grown)
	if err != nil {
		t.Fatalf("tail-grown payload rejected: %v (the versioning contract requires ignoring trailing bytes)", err)
	}
	if string(req.Tenant) != "t" || string(req.Attr) != "a" {
		t.Fatalf("known fields misdecoded from tail-grown payload: %+v", req)
	}
	for _, p := range [][]byte{
		append(PingReq{}.Append(nil), 0x01),
		append(SnapshotFetchReq{}.Append(nil), 0x01, 0x02),
	} {
		d := dec{b: p}
		d.meta()
		if d.err() != nil {
			t.Fatalf("meta-only payload rejected its tail growth")
		}
	}
}
