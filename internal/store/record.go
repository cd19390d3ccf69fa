package store

import (
	"encoding/binary"
	"fmt"

	"pxml/internal/codec"
	"pxml/internal/core"
)

// Record operations. A frame payload is:
//
//	op (1 byte) | name length (uvarint) | name | body
//
// where body is the pxml-bin/1 encoding of the instance for opPut and
// empty for opDelete. Snapshot files contain only opPut records; the WAL
// contains both, plus opStamp commit markers:
//
//	op (1 byte = 3) | unix nanoseconds (int64 LE)
//
// The committer writes one stamp ahead of each group commit so segments
// carry the wall-clock trail point-in-time recovery cuts on and followers
// measure staleness against.
// Replay ignores stamps; they never change catalog state.
const (
	opPut    = byte(1)
	opDelete = byte(2)
	opStamp  = byte(3)
)

// record is one decoded catalog mutation (or, for opStamp, a commit-time
// marker with ts set and no name/instance).
type record struct {
	op   byte
	name string
	inst *core.ProbInstance
	ts   int64 // unix nanoseconds; opStamp only
}

// appendStampRecord appends an opStamp payload for the given unix-nano
// commit time to buf.
func appendStampRecord(buf []byte, unixNano int64) []byte {
	buf = append(buf, opStamp)
	return binary.LittleEndian.AppendUint64(buf, uint64(unixNano))
}

// appendPutRecord appends an opPut payload for (name, pi) to buf.
func appendPutRecord(buf []byte, name string, pi *core.ProbInstance) []byte {
	buf = append(buf, opPut)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	return codec.AppendBinary(buf, pi)
}

// appendDeleteRecord appends an opDelete payload for name to buf.
func appendDeleteRecord(buf []byte, name string) []byte {
	buf = append(buf, opDelete)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

// splitRecord parses a frame payload's header — op, name, undecoded
// body — without touching the instance encoding. It is the cheap half
// of decodeRecord, used by the lazy snapshot load to defer the
// expensive structural decode to first touch. The returned name is a
// fresh heap string; body aliases payload. For opStamp, body is the
// 8-byte timestamp and name is empty.
func splitRecord(payload []byte) (op byte, name string, body []byte, err error) {
	if len(payload) < 1 {
		return 0, "", nil, fmt.Errorf("store: empty record payload")
	}
	op = payload[0]
	if op == opStamp {
		if len(payload) != 9 {
			return 0, "", nil, fmt.Errorf("store: stamp record is %d bytes, want 9", len(payload))
		}
		return opStamp, "", payload[1:], nil
	}
	if op != opPut && op != opDelete {
		return 0, "", nil, fmt.Errorf("store: unknown record op %d", op)
	}
	n, k := binary.Uvarint(payload[1:])
	if k <= 0 || n > uint64(len(payload)-1-k) {
		return 0, "", nil, fmt.Errorf("store: malformed record name length")
	}
	name = string(payload[1+k : 1+k+int(n)])
	if name == "" {
		return 0, "", nil, fmt.Errorf("store: record with empty name")
	}
	body = payload[1+k+int(n):]
	if op == opDelete && len(body) != 0 {
		return 0, "", nil, fmt.Errorf("store: delete record %q carries %d stray bytes", name, len(body))
	}
	return op, name, body, nil
}

// decodeRecord parses one frame payload. The instance is fully decoded
// and validated, so a record that survives the frame checksum can still
// be rejected here (e.g. a writer bug produced an invalid instance); the
// caller quarantines such records like any other corruption.
func decodeRecord(payload []byte) (record, error) {
	op, name, body, err := splitRecord(payload)
	if err != nil {
		return record{}, err
	}
	switch op {
	case opStamp:
		return record{op: opStamp, ts: int64(binary.LittleEndian.Uint64(body))}, nil
	case opPut:
		pi, err := codec.DecodeBinaryBytes(body)
		if err != nil {
			return record{}, fmt.Errorf("store: record %q: %w", name, err)
		}
		return record{op: opPut, name: name, inst: pi}, nil
	default:
		return record{op: opDelete, name: name}, nil
	}
}
