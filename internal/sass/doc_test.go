package sass

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

const isaDoc = "../../docs/sass-isa.md"

// spelling is how docs/sass-isa.md writes the opcode's mnemonic and the
// modifiers its row names: ".{A,B}" for a sub-op vocabulary, in brackets when
// a sub-op is spelled by no suffix, then "[.flag]" and "[.W]".
func spelling(op Opcode) string {
	sh := op.shape()
	s := op.String()
	var named []string
	for _, n := range sh.subOps {
		if n != "" {
			named = append(named, n)
		}
	}
	sub := strings.Join(named, ",")
	if len(named) > 1 {
		sub = "{" + sub + "}"
	}
	switch {
	case len(named) == 0:
	case len(named) < len(sh.subOps):
		s += "[." + sub + "]"
	default:
		s += "." + sub
	}
	if sh.flag != "" {
		s += "[." + sh.flag + "]"
	}
	if sh.wide {
		s += "[.W]"
	}
	return s
}

// TestISADoc: the mnemonics of docs/sass-isa.md's two instruction tables (the
// "instructions" column of "Instruction groups" and the "op" column of "NVBit
// runtime group") are each opcode once, spelled as its row names its
// modifiers.
func TestISADoc(t *testing.T) {
	src, err := os.ReadFile(isaDoc)
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]*)`")
	count := make(map[string]int)
	col := 0
	for _, line := range strings.Split(string(src), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			col = map[string]int{"Instruction groups": 2, "NVBit runtime group": 1}[h]
			continue
		}
		cells := strings.Split(line, "|")
		if col == 0 || !strings.HasPrefix(line, "|") || len(cells) <= col {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cells[col], -1) {
			count[strings.Fields(m[1])[0]]++
		}
	}
	for op := Opcode(0); op.Valid(); op++ {
		want := spelling(op)
		if count[want] != 1 {
			t.Errorf("%s lists `%s` %d times, want once", isaDoc, want, count[want])
		}
		delete(count, want)
	}
	for d := range count {
		t.Errorf("%s lists `%s`, which is no opcode's spelling", isaDoc, d)
	}
}
