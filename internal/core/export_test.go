package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"

	"nvbitgo/internal/driver"
)

// Scope exposes the driver scope the attachment is bound to; leak tests read
// its flush-hook list.
func (n *NVBit) Scope() *driver.Tenant { return n.scope }

// CodeArtifacts re-runs the device-independent half of the Code Generator
// over every function that carries an instrumentation plan and returns each
// one's encoded artifact by function name. The plan stays attached to a
// function after it has been instrumented, so this works both before and after
// the launch that materialized it.
func (n *NVBit) CodeArtifacts() (map[string][]byte, error) {
	out := make(map[string][]byte)
	for f, fs := range n.funcs {
		planned := false
		for _, i := range fs.insts {
			planned = planned || i.hasWork()
		}
		if !planned {
			continue
		}
		art, err := n.buildArtifact(fs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		out[f.Name] = encodeCodeArtifact(art)
	}
	return out, nil
}

// CodeKeys returns the cache key of every instrumented function, in hex by
// function name.
func (n *NVBit) CodeKeys() map[string]string {
	out := make(map[string]string)
	for f, fs := range n.funcs {
		if fs.instrumented {
			out[f.Name] = n.codeKey(fs).String()
		}
	}
	return out
}

// ArtifactDigests returns one "<function> <SHA-256 of the encoded artifact>"
// line per function of CodeArtifacts, sorted.
func (n *NVBit) ArtifactDigests() ([]string, error) {
	code, err := n.CodeArtifacts()
	var out []string
	for name, blob := range code {
		out = append(out, fmt.Sprintf("%s %x", name, sha256.Sum256(blob)))
	}
	sort.Strings(out)
	return out, err
}

// RecodeCodeArtifact decodes a blob and, when it is accepted, reports whether
// encoding the result gives the blob back.
func RecodeCodeArtifact(b []byte) (accepted, same bool) {
	a, err := decodeCodeArtifact(b)
	return err == nil, err == nil && bytes.Equal(encodeCodeArtifact(a), b)
}
