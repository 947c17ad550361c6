// Package wire is the selest binary protocol ("selestwire"): the
// length-prefixed, CRC-framed, request-id-pipelined encoding the native
// client and selestd's binary listener speak over persistent TCP
// connections. It exists because transport, not estimation, dominates
// the service's per-request cost — the engine answers a range query from
// an atomic snapshot in nanoseconds, while HTTP/JSON framing costs
// microseconds of parsing and allocation on both sides (ROADMAP "scale
// selestd past one process"; DESIGN.md §13 documents the byte layout,
// opcode table, and versioning rules).
//
// Frame layout (all integers big-endian):
//
//	offset size field
//	0      2    magic  0x534C ("SL")
//	2      1    version (currently 1)
//	3      1    opcode
//	4      8    request id (client-chosen; responses echo it)
//	12     4    payload length n (≤ the reader's max)
//	16     n    payload (opcode-specific, see messages.go)
//	16+n   4    CRC32 (IEEE) over bytes [0, 16+n)
//
// Requests and responses share the layout; a response's opcode is the
// request's with the high bit set (OpEstimate → OpEstimate|RespFlag), or
// OpError with an (errcode, retry-after hint, message) payload. Request
// ids let a client pipeline many calls on one connection and match
// responses out of order; the server always echoes the id verbatim.
//
// The CRC closes the frame: a truncated, bit-flipped, or misframed
// stream is detected as a typed protocol error (never a panic, never a
// hang, never a garbage decode) — the same crash-safety posture as the
// snapshot file format's CRC envelope.
//
// Versioning rules: the version byte is checked on every frame; a reader
// rejects versions it does not speak with ErrVersion. Within a version,
// payloads may only grow at the tail — decoders ignore trailing bytes
// they do not understand — and opcodes/error codes are append-only, so a
// v1 client can always talk to a v1+n server.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Magic opens every frame: "SL" big-endian.
	Magic uint16 = 0x534C
	// Version is the protocol version this package speaks.
	Version byte = 1
	// HeaderSize is the fixed prefix before the payload.
	HeaderSize = 16
	// TrailerSize is the CRC32 after the payload.
	TrailerSize = 4
	// MaxPayload is the default payload bound — the binary twin of the
	// HTTP transport's body cap. Readers may pass a smaller limit.
	MaxPayload = 16 << 20
	// readStep is how far ReadFrame grows its buffer ahead of the bytes
	// that have arrived while fewer than readStep have.
	readStep = 1 << 20
)

// Op is a frame opcode. Request opcodes are small integers; the matching
// response sets RespFlag; OpError is the error response for any request.
// The opcode space is append-only (DESIGN.md §13).
type Op byte

const (
	// OpEstimate answers one range query (EstimateReq → EstimateRes).
	OpEstimate Op = 0x01
	// OpEstimateBatch answers many queries against one attribute.
	OpEstimateBatch Op = 0x02
	// OpIngest enqueues stream values (IngestReq → IngestRes).
	OpIngest Op = 0x03
	// OpCreateAttr registers an attribute (CreateAttrReq → empty
	// response payload).
	OpCreateAttr Op = 0x04
	// OpPing is the connection health check (empty request and response
	// payloads beyond the request meta).
	OpPing Op = 0x05
	// OpSnapshotFetch streams the server's crash-safe snapshot envelope
	// (SnapshotFetchReq → the raw SELS bytes as the response payload) —
	// the wire leg of snapshot shipping, how `selestd -join` warms a
	// fresh replica from a peer.
	OpSnapshotFetch Op = 0x06

	// RespFlag marks a success response: request opcode | RespFlag.
	RespFlag Op = 0x80
	// OpError is the failure response to any request; its payload is an
	// ErrorRes (stable errcode + retry-after hint + message).
	OpError Op = 0xFF
)

// IsRequest reports whether op is a request opcode this version knows.
func (o Op) IsRequest() bool {
	return o >= OpEstimate && o <= OpSnapshotFetch
}

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpEstimate:
		return "estimate"
	case OpEstimateBatch:
		return "estimate_batch"
	case OpIngest:
		return "ingest"
	case OpCreateAttr:
		return "create_attr"
	case OpPing:
		return "ping"
	case OpSnapshotFetch:
		return "snapshot_fetch"
	case OpError:
		return "error"
	}
	if o&RespFlag != 0 {
		return (o &^ RespFlag).String() + "_resp"
	}
	return fmt.Sprintf("op(0x%02x)", byte(o))
}

// Typed protocol errors. All of them errors.Is-match ErrProtocol, so a
// transport can branch on "the stream is corrupt, hang up" with one
// check while tests pin the specific failure.
var (
	// ErrProtocol is the root of every framing/decoding error.
	ErrProtocol = errors.New("wire: protocol error")
	// ErrMagic reports a frame that does not open with Magic — the peer
	// is not speaking selestwire (or the stream lost sync).
	ErrMagic = protoErr("bad magic")
	// ErrVersion reports a protocol version this reader does not speak.
	ErrVersion = protoErr("unsupported version")
	// ErrTooLarge reports a payload length beyond the reader's bound.
	ErrTooLarge = protoErr("payload too large")
	// ErrChecksum reports a CRC mismatch: the frame was corrupted in
	// flight or truncated mid-payload.
	ErrChecksum = protoErr("checksum mismatch")
	// ErrUnknownOp reports an opcode outside this version's table.
	ErrUnknownOp = protoErr("unknown opcode")
	// ErrMalformed reports a payload that does not decode as its
	// opcode's message (short buffer, bad string length, …).
	ErrMalformed = protoErr("malformed payload")
)

// protocolError is an errors.Is child of ErrProtocol.
type protocolError struct{ msg string }

func protoErr(msg string) error          { return &protocolError{msg} }
func (e *protocolError) Error() string   { return "wire: " + e.msg }
func (e *protocolError) Unwrap() error   { return ErrProtocol }
func (e *protocolError) Is(t error) bool { return t == ErrProtocol }

// Frame is one decoded protocol frame.
type Frame struct {
	Op Op
	// ID is the request id; responses echo their request's.
	ID uint64
	// Payload is the opcode-specific message body. After ReadFrame it
	// aliases the read buffer and is only valid until the next read.
	Payload []byte
}

var crcTable = crc32.IEEETable

// AppendFrame appends the encoded frame to dst and returns it; it
// allocates nothing when dst has room for the frame.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(f.Op))
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.BigEndian.AppendUint32(dst, crc)
}

// ReadFrame reads one frame, enforcing maxPayload and verifying the CRC.
// buf, when non-nil, is reused for the frame bytes; when the frame does
// not fit, buf grows as the frame's bytes arrive, never more than
// readStep or the bytes read so far ahead of them, so a header that
// declares a large payload holds little more memory than the peer has
// sent, and a large frame is copied O(1) times per byte. The returned
// Frame's Payload aliases buf. Errors:
//
//   - io.EOF cleanly between frames (a closed connection),
//   - io.ErrUnexpectedEOF for a stream cut mid-frame,
//   - ErrMagic/ErrVersion/ErrTooLarge/ErrChecksum for corrupt framing.
//
// A reader must treat any ErrProtocol as fatal for the connection: after
// corruption there is no way to re-synchronise the stream.
func ReadFrame(r io.Reader, maxPayload uint32, buf []byte) (Frame, []byte, error) {
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize, HeaderSize+1024)
	}
	hdr := buf[:HeaderSize]
	// ReadFull yields io.EOF only on a clean boundary (zero bytes read)
	// and io.ErrUnexpectedEOF on a cut mid-header — exactly the contract
	// documented above, so the error passes through untouched.
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return Frame{}, buf, ErrMagic
	}
	if hdr[2] != Version {
		return Frame{}, buf, ErrVersion
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > maxPayload {
		return Frame{}, buf, ErrTooLarge
	}
	total := HeaderSize + int(n) + TrailerSize
	for have := HeaderSize; have < total; have = len(buf) {
		end := total
		if cap(buf) < total {
			end = min(total, have+max(readStep, have))
			if cap(buf) < end {
				buf = append(make([]byte, 0, end), buf[:have]...)
			}
		}
		buf = buf[:end]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, buf, err
		}
	}
	want := binary.BigEndian.Uint32(buf[total-TrailerSize:])
	if crc32.Checksum(buf[:total-TrailerSize], crcTable) != want {
		return Frame{}, buf, ErrChecksum
	}
	return Frame{
		Op:      Op(buf[3]),
		ID:      binary.BigEndian.Uint64(buf[4:12]),
		Payload: buf[HeaderSize : total-TrailerSize],
	}, buf, nil
}
