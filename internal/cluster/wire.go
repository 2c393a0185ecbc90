// Package cluster implements scale-out load generation: a coordinator that
// owns cluster-wide dynamic workload control and N worker agents that each
// run a local workload manager, receive rate/mix assignments, and stream
// their stat windows back over a compact binary wire for merged cluster-wide
// percentiles. The same frame codec also carries a remote-engine session
// protocol, so worker processes can drive one shared engine process instead
// of an embedded one.
//
// Wire format. Every message is one length-prefixed frame:
//
//	| length uint32 BE | type byte | payload ... |
//
// where length covers the type byte and payload. Payload integers are
// unsigned varints (signed values zig-zag), strings and byte blobs are
// varint-length-prefixed, and float64s travel as big-endian IEEE bits.
// Histogram bucket arrays use a sparse gap encoding: only non-zero buckets
// are shipped as (index-gap, count) varint pairs, so a stat window update for
// a 2048-bucket histogram is typically a few dozen bytes, not a JSON blob.
//
// Decoding never panics on truncated or corrupt input: the frame reader
// bounds the length against MaxFrameBytes before allocating, and the payload
// reader is error-sticky — every read past a malformation yields zero values
// and the first error is returned once.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ProtoVersion is the cluster wire protocol version. Hello frames carry it;
// both sides reject a mismatch rather than misparse.
const ProtoVersion = 2

// MaxFrameBytes bounds one frame's payload. The largest legitimate frame is
// a stats batch covering every type of a wide benchmark with fully occupied
// histograms (~tens of KiB); 1 MiB leaves headroom while keeping a corrupt
// length prefix from allocating gigabytes.
const MaxFrameBytes = 1 << 20

// Frame types. Control wire (coordinator <-> worker) first, then the
// remote-engine session wire. One namespace so a misdirected frame fails
// loudly instead of aliasing.
const (
	// FrameHello is worker->coordinator: identity + benchmark metadata.
	FrameHello byte = 0x01
	// FrameWelcome is coordinator->worker: assigned id and cadence config.
	FrameWelcome byte = 0x02
	// FrameAssign is coordinator->worker: rate share / mix / pause fan-out.
	FrameAssign byte = 0x03
	// FrameStats is worker->coordinator: one batched stats delta update.
	FrameStats byte = 0x04
	// FrameHeartbeat is worker->coordinator: liveness + cumulative totals.
	FrameHeartbeat byte = 0x05
	// FrameBye announces a graceful departure (either direction).
	FrameBye byte = 0x06

	// Remote-engine session frames.
	FrameEngineHello   byte = 0x10 // client->server: protocol handshake
	FrameEngineWelcome byte = 0x11 // server->client: personality + dialect
	FrameEngineExec    byte = 0x12 // client->server: statement execution
	FrameEngineBegin   byte = 0x13 // client->server: begin txn
	FrameEngineCommit  byte = 0x14 // client->server: commit txn
	FrameEngineAbort   byte = 0x15 // client->server: rollback txn
	FrameEngineResult  byte = 0x16 // server->client: result set
	FrameEngineOK      byte = 0x17 // server->client: success, no rows
	FrameEngineErr     byte = 0x18 // server->client: classified error
)

// ErrFrameTooLarge reports a frame whose length prefix exceeds MaxFrameBytes.
var ErrFrameTooLarge = errors.New("cluster: frame exceeds size limit")

// ErrMalformed reports a payload that ended early or failed validation.
var ErrMalformed = errors.New("cluster: malformed frame payload")

// WriteFrame writes one length-prefixed frame. The payload may be nil.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	// One write for the header+type keeps small frames at two syscalls when
	// w is unbuffered; batching callers wrap w in a bufio.Writer anyway.
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. Flush batching uses it to coalesce several frames into one write.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)+1))
	dst = append(dst, typ)
	return append(dst, payload...)
}

// ReadFrame reads one frame, returning its type and payload. The payload
// slice is freshly allocated and owned by the caller. io.EOF is returned
// clean only at a frame boundary; a tear mid-frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, ErrMalformed
	}
	if n > MaxFrameBytes {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// ---- payload encoding helpers ----

// enc is an append-only payload encoder.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byteVal(v byte)   { e.b = append(e.b, v) }
func (e *enc) boolVal(v bool)   { e.b = append(e.b, b2i(v)) }
func (e *enc) float64Val(v float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}
func (e *enc) float64s(fs []float64) {
	e.uvarint(uint64(len(fs)))
	for _, f := range fs {
		e.float64Val(f)
	}
}

func b2i(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// dec is an error-sticky payload decoder: after the first malformation every
// read returns the zero value, and Err reports the failure once. Length
// prefixes are validated against the remaining bytes before any allocation,
// so corrupt input can neither panic nor balloon memory.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrMalformed
	}
}

// Err returns the first decode error, also failing if trailing bytes remain
// unconsumed (a length/shape mismatch the varint reads did not catch).
func (d *dec) Err() error { return d.err }

// finish fails the decode when unconsumed bytes remain.
func (d *dec) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return d.err
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) boolVal() bool { return d.byteVal() != 0 }

func (d *dec) float64Val() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[:8]))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count validates a declared element count against the minimum encoded size
// per element, so a corrupt count cannot drive a huge allocation.
func (d *dec) count(minBytesPer int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	if n > uint64(len(d.b)/minBytesPer) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) strs() []string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) float64sVal() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float64Val()
	}
	return out
}

// ---- sparse histogram bucket encoding ----

// appendSparseBuckets encodes only the non-zero entries of counts as
// (index-gap, count) varint pairs. Gap coding keeps indexes single-byte for
// clustered occupancy, which real latency histograms are.
func appendSparseBuckets(e *enc, counts []int64) {
	nz := 0
	for _, c := range counts {
		if c != 0 {
			nz++
		}
	}
	e.uvarint(uint64(nz))
	prev := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		e.uvarint(uint64(i - prev))
		e.uvarint(uint64(c))
		prev = i
	}
}

// decodeSparseBuckets decodes (index-gap, count) pairs into a dense slice of
// at least minLen buckets. Indexes must stay below maxIdx or the decode
// fails — a corrupt gap can neither panic nor allocate past the histogram's
// fixed bucket space.
func decodeSparseBuckets(d *dec, minLen, maxIdx int) []int64 {
	n := d.count(2)
	if d.err != nil {
		return nil
	}
	out := make([]int64, minLen)
	idx := 0 // the first gap is the absolute index of the first bucket
	for i := 0; i < n; i++ {
		gap := d.uvarint()
		c := d.uvarint()
		if d.err != nil {
			return nil
		}
		if gap >= uint64(maxIdx) || idx+int(gap) >= maxIdx {
			d.fail()
			return nil
		}
		idx += int(gap)
		if idx >= len(out) {
			grown := make([]int64, idx+1)
			copy(grown, out)
			out = grown
		}
		out[idx] = int64(c)
	}
	return out
}

// frameError wraps a decode failure with the frame type for diagnostics.
func frameError(typ byte, err error) error {
	return fmt.Errorf("cluster: decode frame 0x%02x: %w", typ, err)
}
