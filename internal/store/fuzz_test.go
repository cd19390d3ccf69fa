package store

import (
	"bytes"
	"testing"

	"pxml/internal/core"
	"pxml/internal/fixtures"
)

// FuzzScanFrames: scanFrames never panics on arbitrary bytes, and what it
// reports tiles the input — delivered frames, Bad regions and the torn tail
// cover every byte exactly once, in order, with nothing but Bad regions and
// the tail after CleanLen. Every delivered payload, framed again by
// appendFrame, gives back the bytes it was read from.
func FuzzScanFrames(f *testing.F) {
	put := appendPutRecord(nil, "a", fixtures.Figure2())
	clean := appendFrame(appendFrame(nil, put), appendDeleteRecord(nil, "a"))
	f.Add(clean)
	f.Add(clean[:len(clean)-3])                                                               // torn tail
	f.Add(append(append([]byte("junk"), clean...), "PXR1"...))                                // garbage, then a bare magic
	f.Add(append(appendFrame(nil, []byte{1, 2, 3}), append([]byte("PXR1\xff"), clean...)...)) // a bad frame mid-file
	f.Add([]byte{})
	f.Add([]byte("PXR1\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		type frame struct {
			off     int64
			payload []byte
		}
		var frames []frame
		res, err := scanFrames(data, func(off int64, payload []byte) error {
			frames = append(frames, frame{off, payload})
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned %v with a callback that never fails", err)
		}
		pos, fi, bi := int64(0), 0, 0
		for fi < len(frames) || bi < len(res.Bad) {
			if fi < len(frames) && frames[fi].off == pos {
				fr := frames[fi]
				end := pos + frameHeaderSize + int64(len(fr.payload))
				if !bytes.Equal(appendFrame(nil, fr.payload), data[pos:end]) {
					t.Fatalf("frame at %d does not re-frame to its bytes", pos)
				}
				pos, fi = end, fi+1
				continue
			}
			if bi < len(res.Bad) && res.Bad[bi].Off == pos {
				b := res.Bad[bi]
				if len(b.Data) == 0 || b.Err == nil || !bytes.Equal(b.Data, data[pos:pos+int64(len(b.Data))]) {
					t.Fatalf("bad region at %d: %d bytes, err %v, not the input's", pos, len(b.Data), b.Err)
				}
				pos, bi = pos+int64(len(b.Data)), bi+1
				continue
			}
			t.Fatalf("byte %d is in no frame and no bad region", pos)
		}
		if pos+res.TornTail != int64(len(data)) {
			t.Fatalf("frames and bad regions end at %d, torn tail %d, input %d bytes", pos, res.TornTail, len(data))
		}
		var last int64
		if len(frames) > 0 {
			fr := frames[len(frames)-1]
			last = fr.off + frameHeaderSize + int64(len(fr.payload))
		}
		if res.CleanLen != last {
			t.Fatalf("CleanLen %d, last frame ends at %d", res.CleanLen, last)
		}
	})
}

// FuzzDecodeRecord: decodeRecord never panics on arbitrary bytes. A put it
// accepts re-encodes through appendPutRecord to a payload that decodes to
// the same name and a core.Equal instance; a delete re-encodes to its name
// and a stamp to its exact bytes.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendPutRecord(nil, "bib", fixtures.Figure2VariedLeaves()))
	f.Add(appendPutRecord(nil, "r", core.NewProbInstance("r")))
	f.Add(appendDeleteRecord(nil, "bib"))
	f.Add(appendStampRecord(nil, 1_700_000_000_000_000_000))
	f.Add([]byte{opPut, 0x80, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		switch rec.op {
		case opPut:
			again, err := decodeRecord(appendPutRecord(nil, rec.name, rec.inst))
			if err != nil {
				t.Fatalf("re-encoded put %q does not decode: %v", rec.name, err)
			}
			if again.op != opPut || again.name != rec.name || !core.Equal(rec.inst, again.inst, 0) {
				t.Fatalf("put %q does not survive re-encoding", rec.name)
			}
		case opDelete:
			again, err := decodeRecord(appendDeleteRecord(nil, rec.name))
			if err != nil || again.op != opDelete || again.name != rec.name {
				t.Fatalf("delete %q re-encodes to %+v, %v", rec.name, again, err)
			}
		case opStamp:
			if !bytes.Equal(appendStampRecord(nil, rec.ts), payload) {
				t.Fatalf("stamp %d re-encodes to other bytes", rec.ts)
			}
		default:
			t.Fatalf("decoded unknown op %d", rec.op)
		}
	})
}
