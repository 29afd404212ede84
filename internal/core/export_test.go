package core

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"nvbitgo/internal/driver"
)

// Scope exposes the driver scope the attachment is bound to; leak tests read
// its flush-hook list.
func (n *NVBit) Scope() *driver.Tenant { return n.scope }

// ArtifactDigests re-runs the device-independent half of the Code Generator
// over every function that carries an instrumentation plan and returns one
// "<function> <SHA-256 of the encoded artifact>" line per function, sorted.
// The plan stays attached to a function after it has been instrumented, so
// this works both before and after the launch that materialized it.
func (n *NVBit) ArtifactDigests() ([]string, error) {
	var out []string
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
		out = append(out, fmt.Sprintf("%s %x", f.Name, sha256.Sum256(encodeCodeArtifact(art))))
	}
	sort.Strings(out)
	return out, nil
}
