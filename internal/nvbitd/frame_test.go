package nvbitd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"nvbitgo/internal/tools/registry"
)

// prefix is a frame's two length words.
func prefix(hn, bn uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, hn), bn)
}

// frame is what writeFrame puts on the wire for header and body.
func frame(t testing.TB, header any, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, header, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAllocated reads one frame from data and returns what it decoded and
// how many bytes the process allocated meanwhile. The counter is the
// process's, and other goroutines (the fuzzing engine's, a server winding
// down) allocate now and then, so a reading past max is taken again.
func readAllocated(data []byte, max uint64) (req request, body []byte, allocated uint64, err error) {
	for try := 0; ; try++ {
		var before, after runtime.MemStats
		req = request{}
		runtime.ReadMemStats(&before)
		body, err = readFrame(bytes.NewReader(data), &req)
		runtime.ReadMemStats(&after)
		if allocated = after.TotalAlloc - before.TotalAlloc; allocated <= max || try == 3 {
			return req, body, allocated, err
		}
	}
}

// frameAllocBound is what reading data may allocate: a header and a first
// body piece of maxHeader each on the prefix's word alone, and beyond that
// the received bytes twice (the pieces, then the assembled body).
func frameAllocBound(data []byte) uint64 { return 2*maxHeader + 1<<20 + 2*uint64(len(data)) }

// TestReadFrameBounds: a length prefix is believed up to maxHeader; past that
// the header is refused and the body is allocated as it arrives.
func TestReadFrameBounds(t *testing.T) {
	open := frame(t, &request{Op: opH2D, Addr: 64}, nil)
	hn := binary.BigEndian.Uint32(open)
	for name, data := range map[string][]byte{
		"both lengths at the limit, nothing sent":  prefix(maxHeader, maxFrame),
		"body at the limit, ten bytes of it sent":  append(append(prefix(hn, maxFrame), open[8:]...), "0123456789"...),
		"body of a piece and a byte, a piece sent": append(append(prefix(hn, maxHeader+1), open[8:]...), make([]byte, maxHeader)...),
	} {
		max := frameAllocBound(data)
		_, _, allocated, err := readAllocated(data, max)
		if err == nil || errors.Is(err, errFrameTooLarge) {
			t.Errorf("%s: error %v, want a short read", name, err)
		}
		if allocated > max {
			t.Errorf("%s: allocated %d bytes for %d received, more than %d", name, allocated, len(data), max)
		}
	}
	for name, data := range map[string][]byte{
		"header past the limit": prefix(maxHeader+1, 0),
		"body past the limit":   prefix(2, maxFrame+1),
	} {
		if _, _, allocated, err := readAllocated(data, 1<<16); !errors.Is(err, errFrameTooLarge) || allocated > 1<<16 {
			t.Errorf("%s: error %v after allocating %d bytes, want errFrameTooLarge and nothing allocated", name, err, allocated)
		}
	}

	// A body of several pieces and a remainder arrives whole.
	want := make([]byte, 3*maxHeader+5)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var req request
	body, err := readFrame(bytes.NewReader(frame(t, &request{Op: opH2D, Addr: 64}, want)), &req)
	if err != nil || req.Op != opH2D || req.Addr != 64 || !bytes.Equal(body, want) {
		t.Fatalf("%d-byte body: read %d bytes, header %+v, error %v", len(want), len(body), req, err)
	}
}

// FuzzReadFrame feeds the frame reader what a socket might: it must not
// panic, must allocate within frameAllocBound, and a frame it accepts must
// come back equal after writeFrame.
func FuzzReadFrame(f *testing.F) {
	launch := frame(f, &request{Op: opLaunch, Module: 1, Func: "k", Shared: 16}, []byte{1, 2, 3, 4})
	f.Add(launch)
	f.Add(launch[:len(launch)-2])
	f.Add(frame(f, &request{Op: opOpen, OpenSpec: OpenSpec{Tool: "memtrace", Options: registry.Options{Policy: "block", Inject: "inline"}}}, nil))
	f.Add(frame(f, &response{Err: "nvbitd: unknown op", Overload: &overloadInfo{Tenant: 3, Waiting: 2, Limit: 2}}, nil))
	f.Add(prefix(maxFrame, maxFrame))
	f.Add(append(prefix(2, maxFrame), "{}0123456789"...))
	f.Add(prefix(maxHeader+1, 0))
	f.Add([]byte(openFrames[1].frame))
	f.Fuzz(func(t *testing.T, data []byte) {
		max := frameAllocBound(data)
		req, body, allocated, err := readAllocated(data, max)
		if allocated > max {
			t.Errorf("reading %d bytes allocated %d, more than %d", len(data), allocated, max)
		}
		if err != nil {
			return
		}
		var again request
		body2, err := readFrame(bytes.NewReader(frame(t, &req, body)), &again)
		if err != nil || !reflect.DeepEqual(req, again) || !bytes.Equal(body, body2) {
			t.Errorf("accepted frame %+v with %d body bytes reads back as %+v with %d (%v)", req, len(body), again, len(body2), err)
		}
	})
}

// openFrames are the bytes Dial wrote for two specs before OpenSpec became
// {Tool; registry.Options}: nvbit-run's flag defaults, and a faultinject
// spec with every field set. The JSON names and their order are the
// protocol; a daemon of either build must read the other's open frame.
var openFrames = []struct {
	spec  OpenSpec
	frame string
}{
	{
		OpenSpec{Tool: "instrcount", Options: registry.Options{Policy: "drop", Inject: "trampoline", FIGroup: "gpr", FIModel: "flip"}},
		"\x00\x00\x00\x9f\x00\x00\x00\x00" + `{"op":"open","tool":"instrcount","policy":"drop","inject":"trampoline","fiGroup":"gpr","fiModel":"flip","grid":{"X":0,"Y":0,"Z":0},"block":{"X":0,"Y":0,"Z":0}}`,
	},
	{
		OpenSpec{Tool: "faultinject", Options: registry.Options{Policy: "block", Inject: "inline", FIGroup: "fp32", FIModel: "rand", FITarget: 123456789, FIBit: 7, FIValue: 0xdeadbeef}},
		"\x00\x00\x00\xd2\x00\x00\x00\x00" + `{"op":"open","tool":"faultinject","policy":"block","inject":"inline","fiGroup":"fp32","fiModel":"rand","fiTarget":123456789,"fiBit":7,"fiValue":3735928559,"grid":{"X":0,"Y":0,"Z":0},"block":{"X":0,"Y":0,"Z":0}}`,
	},
}

// TestOpenFrameBytes: the open frame Dial writes for a spec is byte-identical
// to the one recorded, and reads back as the same spec.
func TestOpenFrameBytes(t *testing.T) {
	for _, c := range openFrames {
		sock := filepath.Join(t.TempDir(), "s")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan []byte, 1)
		go func() {
			defer close(got)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var pre [8]byte
			if _, err := io.ReadFull(conn, pre[:]); err != nil {
				return
			}
			rest := make([]byte, binary.BigEndian.Uint32(pre[:])+binary.BigEndian.Uint32(pre[4:]))
			if _, err := io.ReadFull(conn, rest); err != nil {
				return
			}
			writeFrame(conn, &response{Err: "refused by the test"}, nil)
			got <- append(pre[:], rest...)
		}()
		if _, err := Dial(sock, c.spec); err == nil {
			t.Errorf("%s: Dial accepted a refusal", c.spec.Tool)
		}
		ln.Close()
		data := <-got
		if string(data) != c.frame {
			t.Errorf("%s: open frame\n%q\nwant\n%q", c.spec.Tool, data, c.frame)
		}
		var req request
		if _, err := readFrame(bytes.NewReader(data), &req); err != nil || req.Op != opOpen || req.OpenSpec != c.spec {
			t.Errorf("%s: frame reads back as %+v (%v)", c.spec.Tool, req, err)
		}
	}
}
