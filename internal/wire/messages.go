// Opcode-specific payload encodings. Every message uses the same
// primitive vocabulary — big-endian fixed-width integers, IEEE-754 bits
// for floats, uvarint-length-prefixed strings and slices — appended with
// zero reflection and decoded with bounds checks that turn any malformed
// buffer into ErrMalformed, never a panic. Decoders ignore trailing
// bytes so a same-version payload can grow at the tail (the versioning
// rule in the package comment).
package wire

import (
	"encoding/binary"
	"math"
)

// Request/retry headers of selestd's HTTP front. The wire protocol
// carries the same two facts as typed Meta fields; these constants give
// the HTTP server and its tests one spelling — the single source of
// truth the HTTP API contract documents.
const (
	// HeaderTimeoutMs names the client's per-request deadline budget in
	// milliseconds (HTTP transport; Meta.TimeoutMs on the wire).
	HeaderTimeoutMs = "X-Selest-Timeout-Ms"
	// HeaderRetry carries the attempt number of a client retry, 1-based
	// (HTTP transport; Meta.Retry on the wire). "0" or absent means the
	// first attempt.
	HeaderRetry = "X-Selest-Retry"
)

// Meta is the request metadata every request payload leads with: the
// typed form of the HTTP X-Selest-Timeout-Ms and X-Selest-Retry headers.
type Meta struct {
	// TimeoutMs is the client's deadline budget in milliseconds;
	// 0 means "use the server default".
	TimeoutMs uint32
	// Retry is the attempt number, 0 for the first attempt — admission
	// telemetry counts announced retries.
	Retry uint8
}

func (m Meta) append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.TimeoutMs)
	return append(dst, m.Retry)
}

func (d *dec) meta() Meta {
	return Meta{TimeoutMs: d.u32(), Retry: d.u8()}
}

// Range is one [Lo, Hi] query.
type Range struct{ Lo, Hi float64 }

// EstimateReq is OpEstimate's payload.
type EstimateReq struct {
	Meta
	Tenant, Attr string
	Lo, Hi       float64
	Fresh        bool
}

// EstimateRes is one answered query — the wire twin of the service's
// EstimateResult (rung carried as its stable string name).
type EstimateRes struct {
	Selectivity float64
	Rows        float64
	Generation  uint64
	Rung        string
	Degraded    bool
}

// EstimateBatchReq is OpEstimateBatch's payload.
type EstimateBatchReq struct {
	Meta
	Tenant, Attr string
	Fresh        bool
	Queries      []Range
}

// EstimateBatchRes is OpEstimateBatch's response payload.
type EstimateBatchRes struct {
	Results []EstimateRes
}

// IngestReq is OpIngest's payload.
type IngestReq struct {
	Meta
	Tenant, Attr string
	Values       []float64
}

// IngestRes reports what happened to an ingest payload.
type IngestRes struct {
	Queued, Shed uint32
}

// CreateAttrReq is OpCreateAttr's payload. Config is the attribute
// configuration as the same JSON object the HTTP transport and the
// snapshot manifest use — CreateAttr is a rare control-plane call, and
// sharing the JSON encoding keeps exactly one config schema across
// transports and persistence.
type CreateAttrReq struct {
	Meta
	Tenant, Attr string
	Config       []byte
}

// PingReq is OpPing's payload: the meta alone.
type PingReq struct {
	Meta
}

// SnapshotFetchReq is OpSnapshotFetch's payload: the meta alone. The
// response payload is not a message struct — it is the server's SELS
// snapshot envelope verbatim, already self-describing (magic, version,
// CRC-checked manifest, checksummed catalog stream), so wrapping it in
// another encoding would only add a copy.
type SnapshotFetchReq struct {
	Meta
}

// ErrorRes is OpError's payload: the transport-neutral error surface
// (internal/errcode) plus the throttle hint that HTTP carries in
// Retry-After.
type ErrorRes struct {
	// Code is the stable numeric errcode.Code.
	Code uint16
	// RetryAfterMs is the server's throttle hint for over-quota
	// refusals; 0 means none.
	RetryAfterMs uint32
	// Message is the human-readable detail, identical to the HTTP
	// front's JSON error message for the same failure.
	Message string
}

// --- encoding ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Append encodes the request onto dst.
func (r EstimateReq) Append(dst []byte) []byte {
	dst = r.Meta.append(dst)
	dst = appendString(dst, r.Tenant)
	dst = appendString(dst, r.Attr)
	dst = appendF64(dst, r.Lo)
	dst = appendF64(dst, r.Hi)
	return appendBool(dst, r.Fresh)
}

// Append encodes the response onto dst.
func (r EstimateRes) Append(dst []byte) []byte {
	dst = appendF64(dst, r.Selectivity)
	dst = appendF64(dst, r.Rows)
	dst = binary.BigEndian.AppendUint64(dst, r.Generation)
	dst = appendString(dst, r.Rung)
	return appendBool(dst, r.Degraded)
}

// Append encodes the request onto dst.
func (r EstimateBatchReq) Append(dst []byte) []byte {
	dst = r.Meta.append(dst)
	dst = appendString(dst, r.Tenant)
	dst = appendString(dst, r.Attr)
	dst = appendBool(dst, r.Fresh)
	dst = binary.AppendUvarint(dst, uint64(len(r.Queries)))
	for _, q := range r.Queries {
		dst = appendF64(dst, q.Lo)
		dst = appendF64(dst, q.Hi)
	}
	return dst
}

// Append encodes the response onto dst.
func (r EstimateBatchRes) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Results)))
	for _, res := range r.Results {
		dst = res.Append(dst)
	}
	return dst
}

// Append encodes the request onto dst.
func (r IngestReq) Append(dst []byte) []byte {
	dst = r.Meta.append(dst)
	dst = appendString(dst, r.Tenant)
	dst = appendString(dst, r.Attr)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for _, v := range r.Values {
		dst = appendF64(dst, v)
	}
	return dst
}

// Append encodes the response onto dst.
func (r IngestRes) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.Queued)
	return binary.BigEndian.AppendUint32(dst, r.Shed)
}

// Append encodes the request onto dst.
func (r CreateAttrReq) Append(dst []byte) []byte {
	dst = r.Meta.append(dst)
	dst = appendString(dst, r.Tenant)
	dst = appendString(dst, r.Attr)
	dst = binary.AppendUvarint(dst, uint64(len(r.Config)))
	return append(dst, r.Config...)
}

// Append encodes the request onto dst.
func (r PingReq) Append(dst []byte) []byte {
	return r.Meta.append(dst)
}

// Append encodes the request onto dst.
func (r SnapshotFetchReq) Append(dst []byte) []byte {
	return r.Meta.append(dst)
}

// Append encodes the error response onto dst.
func (r ErrorRes) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, r.Code)
	dst = binary.BigEndian.AppendUint32(dst, r.RetryAfterMs)
	return appendString(dst, r.Message)
}

// --- decoding ---

// dec is a bounds-checked cursor: the first short read poisons it and
// every subsequent read returns zeros, so decoders are written straight-
// line and check d.err once at the end.
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || len(d.b) < n {
		d.bad = true
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool { return d.u8() != 0 }

// uvarint also rejects lengths that could not possibly fit the remaining
// buffer, so a hostile length prefix cannot drive a huge allocation.
func (d *dec) uvarint() int {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *dec) str() string {
	n := d.uvarint()
	return string(d.take(n))
}

func (d *dec) bytes() []byte {
	n := d.uvarint()
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// err returns ErrMalformed when any read ran past the payload.
func (d *dec) err() error {
	if d.bad {
		return ErrMalformed
	}
	return nil
}

// strBytes is the zero-copy twin of str: the returned slice aliases the
// payload buffer, valid only as long as the buffer is.
func (d *dec) strBytes() []byte {
	n := d.uvarint()
	return d.take(n)
}

// EstimateReqView is the decoded form of an EstimateReq, with Tenant
// and Attr as byte views aliasing the payload buffer instead of copied
// into fresh strings — the zero-copy decode the server uses for every
// estimate frame, so a steady-state estimate round trip allocates
// nothing. The views are valid only until the frame buffer is reused by
// the next ReadFrame.
type EstimateReqView struct {
	Meta
	Tenant, Attr []byte
	Lo, Hi       float64
	Fresh        bool
}

// DecodeEstimateReqView decodes an OpEstimate payload without copying
// the string fields out of p.
func DecodeEstimateReqView(p []byte) (EstimateReqView, error) {
	d := dec{b: p}
	r := EstimateReqView{
		Meta:   d.meta(),
		Tenant: d.strBytes(),
		Attr:   d.strBytes(),
		Lo:     d.f64(),
		Hi:     d.f64(),
		Fresh:  d.bool(),
	}
	return r, d.err()
}

// EstimateBatchReqView is the decoded form of an EstimateBatchReq:
// Tenant/Attr alias the payload and Queries live in caller-owned scratch.
type EstimateBatchReqView struct {
	Meta
	Tenant, Attr []byte
	Fresh        bool
	Queries      []Range
}

// DecodeEstimateBatchReqView decodes an OpEstimateBatch payload without
// copying the string fields; the ranges are decoded into queries
// (reused when capacity allows, grown otherwise), which is returned so
// the caller keeps the scratch across frames. maxBatch bounds the query
// count (0 = unlimited): a count past it is ErrTooLarge, refused before
// anything is allocated for it.
func DecodeEstimateBatchReqView(p []byte, maxBatch int, queries []Range) (EstimateBatchReqView, []Range, error) {
	d := dec{b: p}
	r := EstimateBatchReqView{
		Meta:   d.meta(),
		Tenant: d.strBytes(),
		Attr:   d.strBytes(),
		Fresh:  d.bool(),
	}
	n := d.uvarint()
	if d.bad {
		return r, queries, ErrMalformed
	}
	if maxBatch > 0 && n > maxBatch {
		return r, queries, ErrTooLarge
	}
	if len(d.b) < 16*n {
		return r, queries, ErrMalformed
	}
	if cap(queries) < n {
		queries = make([]Range, n)
	}
	queries = queries[:n]
	for i := range queries {
		queries[i] = Range{Lo: d.f64(), Hi: d.f64()}
	}
	r.Queries = queries
	return r, queries, d.err()
}

// DecodeEstimateRes decodes an OpEstimate response payload.
func DecodeEstimateRes(p []byte) (EstimateRes, error) {
	d := dec{b: p}
	r := decodeEstimateRes(&d)
	return r, d.err()
}

func decodeEstimateRes(d *dec) EstimateRes {
	return EstimateRes{
		Selectivity: d.f64(),
		Rows:        d.f64(),
		Generation:  d.u64(),
		Rung:        d.str(),
		Degraded:    d.bool(),
	}
}

// DecodeEstimateBatchRes decodes an OpEstimateBatch response payload.
func DecodeEstimateBatchRes(p []byte) (EstimateBatchRes, error) {
	d := dec{b: p}
	n := d.uvarint()
	if d.bad {
		return EstimateBatchRes{}, ErrMalformed
	}
	r := EstimateBatchRes{Results: make([]EstimateRes, 0, min(n, 4096))}
	for i := 0; i < n; i++ {
		r.Results = append(r.Results, decodeEstimateRes(&d))
		if d.bad {
			return EstimateBatchRes{}, ErrMalformed
		}
	}
	return r, d.err()
}

// DecodeIngestReq decodes an OpIngest payload; maxValues bounds the
// value count as maxBatch does in DecodeEstimateBatchReqView.
func DecodeIngestReq(p []byte, maxValues int) (IngestReq, error) {
	d := dec{b: p}
	r := IngestReq{
		Meta:   d.meta(),
		Tenant: d.str(),
		Attr:   d.str(),
	}
	n := d.uvarint()
	if d.bad {
		return r, ErrMalformed
	}
	if maxValues > 0 && n > maxValues {
		return r, ErrTooLarge
	}
	if len(d.b) < 8*n {
		return r, ErrMalformed
	}
	r.Values = make([]float64, n)
	for i := range r.Values {
		r.Values[i] = d.f64()
	}
	return r, d.err()
}

// DecodeIngestRes decodes an OpIngest response payload.
func DecodeIngestRes(p []byte) (IngestRes, error) {
	d := dec{b: p}
	r := IngestRes{Queued: d.u32(), Shed: d.u32()}
	return r, d.err()
}

// DecodeCreateAttrReq decodes an OpCreateAttr payload.
func DecodeCreateAttrReq(p []byte) (CreateAttrReq, error) {
	d := dec{b: p}
	r := CreateAttrReq{
		Meta:   d.meta(),
		Tenant: d.str(),
		Attr:   d.str(),
		Config: d.bytes(),
	}
	return r, d.err()
}

// DecodePingReq decodes an OpPing payload.
func DecodePingReq(p []byte) (PingReq, error) {
	d := dec{b: p}
	r := PingReq{Meta: d.meta()}
	return r, d.err()
}

// DecodeSnapshotFetchReq decodes an OpSnapshotFetch payload.
func DecodeSnapshotFetchReq(p []byte) (SnapshotFetchReq, error) {
	d := dec{b: p}
	r := SnapshotFetchReq{Meta: d.meta()}
	return r, d.err()
}

// DecodeErrorRes decodes an OpError payload.
func DecodeErrorRes(p []byte) (ErrorRes, error) {
	d := dec{b: p}
	r := ErrorRes{
		Code:         d.u16(),
		RetryAfterMs: d.u32(),
		Message:      d.str(),
	}
	return r, d.err()
}
