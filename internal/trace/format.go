package trace

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary trace-set format: the `trace` artifact kind. Multi-MB trace
// blobs ride the campaign store and the fabric as opaque bytes, so the
// format is fixed-endian, self-describing, and free of floats-as-text:
//
//	offset  size  field
//	0       4     magic "VBTR"
//	4       2     version (LE, currently 1)
//	6       2     aux bytes per trace (LE; e.g. 16 for an AES plaintext)
//	8       4     trace count (LE)
//	12      4     samples per trace (LE)
//	16      —     per trace: aux bytes, then samples as IEEE-754
//	              binary32 little-endian
//
// Every trace carries the same sample count and aux size; the encoder
// rejects ragged inputs instead of padding, because a ragged set means
// the capture rig misbehaved (the interpreter's fixed control flow
// makes every trial the same length). A set holds at least one trace of
// at least one sample, so the decoder can bound the header's counts by
// the bytes actually present before it allocates anything.

const (
	setMagic   = "VBTR"
	setVersion = 1
	headerLen  = 16
)

// Set is a decoded trace set.
type Set struct {
	// Samples holds one row per trace.
	Samples [][]float32
	// Aux holds the per-trace auxiliary record (nil rows when the set
	// was encoded with no aux data) — for the AES captures, the
	// 16-byte plaintext of the trial.
	Aux [][]byte
}

// EncodeSet serializes traces (and optional per-trace aux records) into
// the VBTR format. aux may be nil; when present it must match traces
// row for row, every row the same length.
func EncodeSet(traces [][]float32, aux [][]byte) ([]byte, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: empty set")
	}
	nsamples := len(traces[0])
	if nsamples == 0 {
		return nil, fmt.Errorf("trace: traces hold no samples")
	}
	for i, t := range traces {
		if len(t) != nsamples {
			return nil, fmt.Errorf("trace: ragged set: trace %d has %d samples, trace 0 has %d", i, len(t), nsamples)
		}
	}
	auxBytes := 0
	if aux != nil {
		if len(aux) != len(traces) {
			return nil, fmt.Errorf("trace: %d aux records for %d traces", len(aux), len(traces))
		}
		auxBytes = len(aux[0])
		for i, a := range aux {
			if len(a) != auxBytes {
				return nil, fmt.Errorf("trace: ragged aux: record %d has %d bytes, record 0 has %d", i, len(a), auxBytes)
			}
		}
	}
	if auxBytes > math.MaxUint16 {
		return nil, fmt.Errorf("trace: aux record too large (%d bytes)", auxBytes)
	}
	out := make([]byte, headerLen, headerLen+len(traces)*(auxBytes+4*nsamples))
	copy(out, setMagic)
	binary.LittleEndian.PutUint16(out[4:], setVersion)
	binary.LittleEndian.PutUint16(out[6:], uint16(auxBytes))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(traces)))
	binary.LittleEndian.PutUint32(out[12:], uint32(nsamples))
	var w [4]byte
	for i, t := range traces {
		if aux != nil {
			out = append(out, aux[i]...)
		}
		for _, s := range t {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(s))
			out = append(out, w[:]...)
		}
	}
	return out, nil
}

// DecodeSet parses a VBTR blob.
func DecodeSet(b []byte) (*Set, error) {
	if len(b) < headerLen || string(b[:4]) != setMagic {
		return nil, fmt.Errorf("trace: not a VBTR trace set")
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != setVersion {
		return nil, fmt.Errorf("trace: unsupported VBTR version %d", v)
	}
	auxBytes := int(binary.LittleEndian.Uint16(b[6:]))
	ntraces := int(binary.LittleEndian.Uint32(b[8:]))
	nsamples := int(binary.LittleEndian.Uint32(b[12:]))
	if ntraces == 0 || nsamples == 0 {
		return nil, fmt.Errorf("trace: VBTR set of %d×%d holds no samples", ntraces, nsamples)
	}
	// The counts come from untrusted bytes: check them against the body
	// by division, which cannot overflow, before allocating anything.
	body, row := uint64(len(b)-headerLen), uint64(auxBytes)+4*uint64(nsamples)
	if body%row != 0 || body/row != uint64(ntraces) {
		return nil, fmt.Errorf("trace: VBTR body of %d bytes does not hold %d×%d (+%dB aux)", body, ntraces, nsamples, auxBytes)
	}
	set := &Set{
		Samples: make([][]float32, ntraces),
		Aux:     make([][]byte, ntraces),
	}
	off := headerLen
	for i := 0; i < ntraces; i++ {
		if auxBytes > 0 {
			set.Aux[i] = append([]byte(nil), b[off:off+auxBytes]...)
			off += auxBytes
		}
		row := make([]float32, nsamples)
		for j := range row {
			row[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
			off += 4
		}
		set.Samples[i] = row
	}
	return set, nil
}
