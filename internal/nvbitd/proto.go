// Package nvbitd implements the multi-tenant instrumentation daemon: a
// server owning a pool of simulated devices that serves concurrent client
// sessions over a local unix socket, and the client side that speaks the
// same protocol and exposes a remote session as a driver.Launcher so
// unmodified workloads replay against the daemon.
//
// Wire protocol (docs/nvbitd.md): every message is one length-prefixed
// frame — two big-endian uint32 lengths (JSON header, binary body) followed
// by the header and body bytes. A connection carries exactly one session:
// the client opens it with "open", drives it with module/memory/launch
// requests, finalizes it with "report" (which detaches the session's hook,
// firing the tool's AtTerm and closing its channels), and ends it with
// "close" or by closing the connection. Requests on one connection are
// strictly sequential; concurrency comes from concurrent connections,
// whose kernel launches the device gate schedules by fair share.
package nvbitd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
)

// Protocol operation names (request.Op).
const (
	opOpen     = "open"
	opLoadPTX  = "loadptx"
	opMemAlloc = "memalloc"
	opMemFree  = "memfree"
	opH2D      = "h2d"
	opD2H      = "d2h"
	opLaunch   = "launch"
	opReport   = "report"
	opClose    = "close"
)

// maxFrame bounds a single frame's body (defensive: device buffers cross
// this wire, but nothing near a quarter gigabyte). maxHeader bounds the JSON
// header, and is also the most readFrame allocates on a length prefix's word
// alone: a larger body is allocated as its bytes arrive.
const (
	maxFrame  = 1 << 28
	maxHeader = 1 << 20
)

// errFrameTooLarge is what readFrame wraps when a length prefix is over the
// limits above; nothing of the frame is read or allocated.
var errFrameTooLarge = errors.New("nvbitd: frame too large")

// request is the JSON header of a client→server frame. Fields beyond Op
// are op-specific; unused ones stay at their zero value and are omitted.
type request struct {
	Op string `json:"op"`

	OpenSpec // open

	// loadptx (body = PTX source), launch, getfunc
	Name string `json:"name,omitempty"`

	// memfree, h2d (body = payload), d2h
	Addr uint64 `json:"addr,omitempty"`
	N    uint64 `json:"n,omitempty"`

	// launch (body = packed params)
	Module uint64   `json:"module,omitempty"`
	Func   string   `json:"func,omitempty"`
	Grid   gpu.Dim3 `json:"grid,omitempty"`
	Block  gpu.Dim3 `json:"block,omitempty"`
	Shared int      `json:"shared,omitempty"`
}

// overloadInfo carries a typed load-shed rejection across the wire so the
// client can reconstruct a *driver.OverloadError (errors.Is/AsOverload
// keep working on the client side).
type overloadInfo struct {
	Tenant  uint64 `json:"tenant"`
	Waiting int    `json:"waiting"`
	Limit   int    `json:"limit"`
}

// wireFunc is the client-visible metadata of one kernel in a loaded
// module — enough to build a detached driver.Function whose PackParams
// produces byte-identical parameter buffers.
type wireFunc struct {
	Name        string      `json:"name"`
	Entry       bool        `json:"entry"`
	Params      []ptx.Param `json:"params"`
	ParamBytes  int         `json:"paramBytes"`
	SharedBytes int         `json:"sharedBytes"`
}

// response is the JSON header of a server→client frame. Err is empty on
// success; Overload is set alongside Err when a launch was load-shed.
type response struct {
	Err      string        `json:"err,omitempty"`
	Overload *overloadInfo `json:"overload,omitempty"`

	// open
	Session uint64 `json:"session,omitempty"`

	// loadptx
	Module uint64     `json:"module,omitempty"`
	Funcs  []wireFunc `json:"funcs,omitempty"`

	// memalloc
	Addr uint64 `json:"addr,omitempty"`

	// report (body = the tool's report text)
	Violation bool   `json:"violation,omitempty"`
	Launches  uint64 `json:"launches,omitempty"`
	Cycles    uint64 `json:"cycles,omitempty"`
}

// writeFrame sends one message: header-length, body-length, JSON header,
// body.
func writeFrame(w io.Writer, header any, body []byte) error {
	hdr, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("nvbitd: encoding header: %w", err)
	}
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:], uint32(len(hdr)))
	binary.BigEndian.PutUint32(pre[4:], uint32(len(body)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame receives one message, decoding the JSON header into header and
// returning the body (nil when empty).
func readFrame(r io.Reader, header any) ([]byte, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	hn := binary.BigEndian.Uint32(pre[0:])
	bn := binary.BigEndian.Uint32(pre[4:])
	if hn > maxHeader || bn > maxFrame {
		return nil, fmt.Errorf("%w (%d-byte header, %d-byte body)", errFrameTooLarge, hn, bn)
	}
	hdr := make([]byte, hn)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(hdr, header); err != nil {
		return nil, fmt.Errorf("nvbitd: decoding header: %w", err)
	}
	if bn == 0 {
		return nil, nil
	}
	if bn <= maxHeader {
		body := make([]byte, bn)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	// A peer that sends a prefix and stalls must cost one piece, not the
	// length it claimed: a large body is collected in maxHeader-sized pieces
	// and assembled when the last byte is in.
	var pieces [][]byte
	for left := int(bn); left > 0; {
		piece := make([]byte, min(left, maxHeader))
		if _, err := io.ReadFull(r, piece); err != nil {
			return nil, err
		}
		pieces = append(pieces, piece)
		left -= len(piece)
	}
	return bytes.Join(pieces, nil), nil
}
