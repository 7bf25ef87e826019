package rpc

import (
	"bytes"
	"reflect"
	"testing"

	"prdma/internal/redolog"
)

// canonReq returns req as its wire image can carry it: a read or scan keeps
// only whether it wants contents back (nil or empty Payload), every other
// field travels verbatim.
func canonReq(req *Request) *Request {
	c := *req
	if c.Payload != nil && !carriesPayload(c.Op) {
		c.Payload = []byte{}
	}
	return &c
}

// FuzzDecodeEntry feeds arbitrary redo-log entry images to the RPC decoder —
// the bytes recovery replays after a crash. Whatever the bytes, decodeEntry
// and decodeBatch of the decoded payload must not panic and must never yield
// a payload longer than its request's Size. The decoded header must
// round-trip through encodeReq/decodeReq, and the decoded batch
// constituents through makeBatchFrame/decodeBatch, exactly. The same bytes,
// read as a response, must decode without panicking to at most their own
// length, and encodeResp/decodeResp must round-trip. The seed corpus is
// encodeEntry images of every op with real and synthetic payloads, so plain
// `go test` replays it.
func FuzzDecodeEntry(f *testing.F) {
	c := &durableClient{conn: &conn{imgBySeq: make(map[uint64][]byte)}}
	add := func(seq uint64, req *Request) {
		img := c.encodeEntry(seq, req, reqWireBytes(req))
		f.Add(append([]byte(nil), img...))
	}
	val := []byte("0123456789abcdef")
	add(1, &Request{Op: OpWrite, Key: 7, Size: len(val), Payload: val})
	add(2, &Request{Op: OpWrite, Key: 7, Size: 64})
	add(3, &Request{Op: OpRead, Key: 9, Size: 64, Payload: []byte{}})
	add(4, &Request{Op: OpRead, Key: 9, Size: 64})
	add(5, &Request{Op: OpCtrl, Key: 1, Size: 5, Payload: []byte("alloc")})
	add(6, &Request{Op: OpScan, Key: 3, Size: 64, ScanLen: 4, Payload: []byte{}})
	add(7, &Request{Op: OpScan, Key: 3, Size: 64, ScanLen: 4})
	mixed := []*Request{
		{Op: OpWrite, Key: 1, Size: len(val), Payload: val},
		{Op: OpRead, Key: 2, Size: 64, Payload: []byte{}},
		{Op: OpScan, Key: 3, Size: 64, ScanLen: 2},
	}
	frame, _ := makeBatchFrame(mixed)
	add(8, frame)
	frame, _ = makeBatchFrame([]*Request{{Op: OpWrite, Key: 1, Size: 32}, {Op: OpRead, Key: 2, Size: 32}})
	add(9, frame) // synthetic write: the frame body stays unmaterialized
	frame, _ = makeBatchFrame([]*Request{{Op: OpRead, Key: 4, Size: 64, Payload: []byte{}}, {Op: OpRead, Key: 5, Size: 64}})
	add(10, frame)

	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) < redolog.HeaderBytes+reqHeaderBytes {
			return
		}
		rseq, data := decodeResp(img)
		if len(data) > len(img)-respHeaderBytes {
			t.Fatalf("response data %d bytes from a %d-byte image", len(data), len(img))
		}
		if s, d := decodeResp(encodeResp(rseq, data)); s != rseq || !bytes.Equal(d, data) {
			t.Fatalf("response round trip: got (%d, %x), want (%d, %x)", s, d, rseq, data)
		}

		seq, req := c.decodeEntry(img)
		if len(req.Payload) > req.Size {
			t.Fatalf("decoded payload %d bytes > Size %d", len(req.Payload), req.Size)
		}
		reqs := decodeBatch(req.Payload)
		for i, r := range reqs {
			if len(r.Payload) > r.Size {
				t.Fatalf("constituent %d: payload %d bytes > Size %d", i, len(r.Payload), r.Size)
			}
		}

		want := canonReq(req)
		gotSeq, got := decodeReq(encodeReq(seq, want))
		if gotSeq != seq || !reflect.DeepEqual(got, want) {
			t.Fatalf("request round trip: got (%d, %+v), want (%d, %+v)", gotSeq, got, seq, want)
		}

		if len(reqs) == 0 {
			return
		}
		frame, _ := makeBatchFrame(reqs)
		if back := decodeBatch(frame.Payload); !reflect.DeepEqual(back, reqs) {
			t.Fatalf("batch round trip: got %d requests %+v, want %d %+v", len(back), back, len(reqs), reqs)
		}
	})
}
