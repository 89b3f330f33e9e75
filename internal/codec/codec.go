// Package codec serializes sketch state to a compact, versioned binary
// format. This is the wire format for the paper's Section 6 distributed
// setting — workers ship buffers to a coordinator — and for checkpointing
// long-lived sketches (e.g. histograms over tables that grow for months).
//
// The format is deterministic and self-checking: a magic header, a format
// version, varint-encoded integers, element payloads via a pluggable
// Element codec, and a trailing CRC-32 over everything before it.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Element encodes and decodes single elements of type T.
type Element[T any] interface {
	// Append encodes v onto dst and returns the extended slice.
	Append(dst []byte, v T) []byte
	// Decode reads one value from src, returning it and the remaining
	// bytes.
	Decode(src []byte) (T, []byte, error)
	// Name identifies the codec; it is stored in the header and checked on
	// decode so a float64 blob is never misread as strings.
	Name() string
}

// Bulk is an optional extension of Element for codecs that can move whole
// element slices per call (typically fixed-width representations). The
// encoders use it when available so buffer payloads are marshalled without
// per-element interface dispatch; the wire format is unchanged.
type Bulk[T any] interface {
	Element[T]
	// AppendBulk encodes every element of vs onto dst.
	AppendBulk(dst []byte, vs []T) []byte
	// DecodeBulk fills dst with len(dst) decoded values, returning the
	// remaining bytes.
	DecodeBulk(src []byte, dst []T) (rest []byte, err error)
}

// appendElems encodes vs onto dst via the bulk path when ec supports it.
func appendElems[T any](dst []byte, ec Element[T], vs []T) []byte {
	if bc, ok := ec.(Bulk[T]); ok {
		return bc.AppendBulk(dst, vs)
	}
	for _, v := range vs {
		dst = ec.Append(dst, v)
	}
	return dst
}

// decodeElems fills dst with len(dst) values from src via the bulk path
// when ec supports it.
func decodeElems[T any](src []byte, ec Element[T], dst []T) ([]byte, error) {
	if bc, ok := ec.(Bulk[T]); ok {
		return bc.DecodeBulk(src, dst)
	}
	var err error
	for i := range dst {
		if dst[i], src, err = ec.Decode(src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// Float64 returns the codec for float64 elements (fixed 8-byte IEEE 754,
// little endian). It implements Bulk.
func Float64() Element[float64] { return float64Codec{} }

type float64Codec struct{}

func (float64Codec) Name() string { return "float64" }

func (float64Codec) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func (float64Codec) Decode(src []byte) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("codec: short float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), src[8:], nil
}

func (float64Codec) AppendBulk(dst []byte, vs []float64) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[off+8*i:], math.Float64bits(v))
	}
	return dst
}

func (float64Codec) DecodeBulk(src []byte, dst []float64) ([]byte, error) {
	n := 8 * len(dst)
	if len(src) < n {
		return nil, fmt.Errorf("codec: short float64 block")
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return src[n:], nil
}

// Int64 returns the codec for int64 elements (zig-zag varint).
func Int64() Element[int64] { return int64Codec{} }

type int64Codec struct{}

func (int64Codec) Name() string { return "int64" }

func (int64Codec) Append(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func (int64Codec) Decode(src []byte) (int64, []byte, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("codec: bad int64 varint")
	}
	return v, src[n:], nil
}

// Int returns the codec for int elements (zig-zag varint).
func Int() Element[int] { return intCodec{} }

type intCodec struct{}

func (intCodec) Name() string { return "int" }

func (intCodec) Append(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

func (intCodec) Decode(src []byte) (int, []byte, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("codec: bad int varint")
	}
	return int(v), src[n:], nil
}

// String returns the codec for string elements (varint length prefix).
func String() Element[string] { return stringCodec{} }

type stringCodec struct{}

func (stringCodec) Name() string { return "string" }

func (stringCodec) Append(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func (stringCodec) Decode(src []byte) (string, []byte, error) {
	l, n := binary.Uvarint(src)
	if n <= 0 || uint64(len(src)-n) < l {
		return "", nil, fmt.Errorf("codec: bad string header")
	}
	return string(src[n : n+int(l)]), src[n+int(l):], nil
}

// writer accumulates the encoding.
type writer struct{ buf []byte }

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *writer) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes an encoding.
type reader struct{ buf []byte }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("codec: bad uvarint")
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("codec: bad varint")
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, fmt.Errorf("codec: unexpected end of input")
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("codec: bad bool byte %d", b)
	}
	return b == 1, nil
}

func (r *reader) str() (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.buf)) < l {
		return "", fmt.Errorf("codec: short string")
	}
	s := string(r.buf[:l])
	r.buf = r.buf[l:]
	return s, nil
}

// frame wraps a payload with magic, version, kind, codec name and CRC.
func frame(kind byte, codecName string, payload []byte) []byte {
	w := &writer{buf: make([]byte, 0, len(payload)+32)}
	w.buf = append(w.buf, magic...)
	w.byte(version)
	w.byte(kind)
	w.str(codecName)
	w.uvarint(uint64(len(payload)))
	w.buf = append(w.buf, payload...)
	sum := crc32.ChecksumIEEE(w.buf)
	return binary.LittleEndian.AppendUint32(w.buf, sum)
}

// unframe validates and strips the envelope.
func unframe(data []byte, wantKind byte, wantCodec string) ([]byte, error) {
	name, payload, err := unframeAny(data, wantKind)
	if err != nil {
		return nil, err
	}
	if name != wantCodec {
		return nil, fmt.Errorf("codec: element codec %q, want %q", name, wantCodec)
	}
	return payload, nil
}

// unframeAny validates the envelope and returns the name slot verbatim, so
// callers can attach their own semantics to a mismatch.
func unframeAny(data []byte, wantKind byte) (string, []byte, error) {
	if len(data) < len(magic)+2+4 {
		return "", nil, fmt.Errorf("codec: truncated frame")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return "", nil, fmt.Errorf("codec: checksum mismatch")
	}
	r := &reader{buf: body}
	for i := 0; i < len(magic); i++ {
		b, err := r.byte()
		if err != nil || b != magic[i] {
			return "", nil, fmt.Errorf("codec: bad magic")
		}
	}
	v, err := r.byte()
	if err != nil {
		return "", nil, err
	}
	if v != version {
		return "", nil, fmt.Errorf("codec: unsupported version %d", v)
	}
	k, err := r.byte()
	if err != nil {
		return "", nil, err
	}
	if k != wantKind {
		return "", nil, &FrameKindError{Got: k, Want: wantKind}
	}
	name, err := r.str()
	if err != nil {
		return "", nil, err
	}
	plen, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	if uint64(len(r.buf)) != plen {
		return "", nil, fmt.Errorf("codec: payload length %d, header says %d", len(r.buf), plen)
	}
	return name, r.buf, nil
}

// version 2 added FillState.Target (the pre-drawn in-block keep position
// introduced with skip-sampling); version-1 blobs are rejected rather than
// silently misread.
const version = 2

var magic = []byte("MRLQ")

// Frame kinds.
const (
	kindSketch      = 1
	kindShipment    = 2
	kindKnownN      = 3
	kindHistogram   = 4
	kindCoordinator = 5
	kindEngine      = 6
)

// EngineTagError reports an engine frame carrying a different engine's
// payload. It is a distinct type so serving layers can map it to a
// permanent incompatibility (HTTP 409) rather than a transient decode
// failure.
type EngineTagError struct{ Got, Want string }

func (e *EngineTagError) Error() string {
	return fmt.Sprintf("codec: engine frame tag %q, want %q", e.Got, e.Want)
}

// Incompatible marks the error as a permanent engine mismatch for
// errors.As-based dispatch without an import dependency on the engine
// registry.
func (e *EngineTagError) Incompatible() bool { return true }

// FrameKindError reports a well-formed frame of another kind: an engine
// frame where a shipment was expected, say, which is what a blob from a
// different engine looks like. Like EngineTagError it marks a permanent
// incompatibility (HTTP 409), not a transient decode failure.
type FrameKindError struct{ Got, Want byte }

func (e *FrameKindError) Error() string {
	return fmt.Sprintf("codec: frame kind %d, want %d", e.Got, e.Want)
}

// Incompatible marks the error as a permanent mismatch.
func (e *FrameKindError) Incompatible() bool { return true }

// MarshalEngineFrame wraps an engine-specific payload in the standard
// self-checking envelope (kind 6), carrying the engine name in the header's
// name slot. The KLL and GK engines use it for both shipments and
// checkpoints so every blob is CRC-guarded and names the engine that wrote
// it.
func MarshalEngineFrame(tag string, payload []byte) []byte {
	return frame(kindEngine, tag, payload)
}

// UnmarshalEngineFrame validates an engine frame and returns its payload.
// A well-formed frame written by a different engine yields *EngineTagError.
func UnmarshalEngineFrame(data []byte, wantTag string) ([]byte, error) {
	tag, payload, err := unframeAny(data, kindEngine)
	if err != nil {
		return nil, err
	}
	if tag != wantTag {
		return nil, &EngineTagError{Got: tag, Want: wantTag}
	}
	return payload, nil
}
