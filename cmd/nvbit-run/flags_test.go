package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvbitgo/internal/cliconf"
)

// TestFlagTable keeps the flag table in docs/nvbit-run.md generated from
// the flag declarations. Regenerate with:
//
//	UPDATE_DOCS=1 go test ./cmd/nvbit-run -run TestFlagTable
func TestFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("nvbit-run", flag.ContinueOnError)
	c, cc := newFlags(fs)
	table := cc.TableMarkdown(cliconf.Column{Head: "Modes", Cell: func(name string) string { return modesCell(c.honoured[name]) }})
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
	cell := strings.Join(names, ", ")
	if m&modeTool != 0 {
		cell += "; not with `-tool none`"
	}
	return cell
}
