package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nvbitgo/internal/cliconf"
	"nvbitgo/internal/tools/registry"
)

// TestFlagTable keeps the flag table in docs/nvbit-run.md generated from
// the flag declarations and the registry's read table. Regenerate with:
//
//	UPDATE_DOCS=1 go test ./cmd/nvbit-run -run TestFlagTable
func TestFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("nvbit-run", flag.ContinueOnError)
	c, cc := newFlags(fs)
	table := cc.TableMarkdown(
		cliconf.Column{Head: "Modes", Cell: func(name string) string { return modesCell(c.honoured[name]) }},
		cliconf.Column{Head: "Tools", Cell: toolsCell},
	)
	path := filepath.Join("..", "..", "docs", "nvbit-run.md")

	if os.Getenv("UPDATE_DOCS") != "" {
		if err := cliconf.WriteDocsTable(path, table); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := cliconf.DocsTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.Trim(table, "\n") {
		t.Errorf("docs/nvbit-run.md flag table is stale; regenerate with UPDATE_DOCS=1 go test ./cmd/nvbit-run -run TestFlagTable\nwant:\n%s\ngot:\n%s", table, got)
	}
}

// modesCell is a flag's Modes cell in the docs table: the modes that read it.
func modesCell(m modes) string {
	var names []string
	for _, mode := range []struct {
		m    modes
		name string
	}{{modeStandalone, "standalone"}, {modeConnect, "connect"}, {modeCampaign, "campaign"}} {
		if m&mode.m != 0 {
			names = append(names, mode.name)
		}
	}
	return strings.Join(names, ", ")
}

// specField is the registry.Options field each spec flag fills; -jit-cache
// goes with the injection mode, as the run refuses it for a tool that reads
// none.
var specField = map[string]string{
	"backpressure": "policy",
	"inject":       "inject",
	"jit-cache":    "inject",
	"fi-group":     "fiGroup",
	"fi-model":     "fiModel",
	"fi-target":    "fiTarget",
	"fi-bit":       "fiBit",
	"fi-value":     "fiValue",
}

// readers returns the tools that read a spec field and those that do not.
func readers(field string) (in, out []string) {
	for _, name := range registry.Names() {
		if slices.Contains(registry.ReadsOf(name), field) {
			in = append(in, name)
		} else {
			out = append(out, name)
		}
	}
	return in, out
}

// toolsCell is a spec flag's Tools cell in the docs table: the tools that
// read it, as the registry's rows say. Flags of the run itself have none.
func toolsCell(name string) string {
	field, ok := specField[name]
	if !ok {
		return ""
	}
	in, out := readers(field)
	if len(out) == 1 {
		return "all but `" + out[0] + "`"
	}
	return strings.Join(in, ", ")
}
