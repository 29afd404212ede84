// Command sassdump is the nvdisasm analog: it compiles a PTX source file (or
// parses a cubin device binary) and prints the resulting synthetic SASS with
// per-function metadata — register budget, parameter layout, basic blocks
// and source-line correlation.
//
// Usage:
//
//	sassdump -family volta kernel.ptx
//	sassdump -cubin library.cubin
//	sassdump -nvlib            # dump the bundled accelerated library
package main

import (
	"flag"
	"fmt"
	"os"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/workloads/nvlib"
)

func main() {
	familyName := flag.String("family", "volta", "target family: kepler, maxwell, pascal, volta")
	cubin := flag.Bool("cubin", false, "input is a cubin device binary, not PTX")
	dumpLib := flag.Bool("nvlib", false, "dump the bundled accelerated library instead of a file")
	flag.Parse()

	fam, err := sass.ParseFamily(*familyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sassdump:", err)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sassdump:", err)
		os.Exit(1)
	}

	var image []byte
	switch {
	case *dumpLib:
		img, err := nvlib.CubinFor(fam)
		if err != nil {
			fail(err)
		}
		image = img
		*cubin = true
	case flag.NArg() != 1:
		fmt.Fprintln(os.Stderr, "usage: sassdump [-family F] [-cubin] <file>")
		os.Exit(2)
	default:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		image = data
	}

	if *cubin {
		c, err := driver.ParseCubin(image)
		if err != nil {
			fail(err)
		}
		fmt.Printf("// cubin %s, family %v, %d functions\n", c.Name, c.Family, len(c.Funcs))
		codec := sass.CodecFor(c.Family)
		for _, f := range c.Funcs {
			insts, err := codec.DecodeAll(f.Code)
			if err != nil {
				fail(err)
			}
			dumpFunc(f.Name, f.Entry, f.NumRegs, f.ParamBytes, insts, f.Lines)
		}
		return
	}

	m, err := ptx.Compile(flag.Arg(0), string(image), fam)
	if err != nil {
		fail(err)
	}
	fmt.Printf("// module %s, family %v, %d functions\n", m.Name, m.Family, len(m.Funcs))
	for _, f := range m.Funcs {
		dumpFunc(f.Name, f.Entry, f.NumRegs, f.ParamBytes, f.Insts, f.Lines)
	}
}

func dumpFunc(name string, entry bool, numRegs, paramBytes int, insts []sass.Inst, lines []int32) {
	kind := ".func"
	if entry {
		kind = ".entry"
	}
	fmt.Printf("\n%s %s  // %d registers, %d param bytes, %d instructions\n",
		kind, name, numRegs, paramBytes, len(insts))
	blocks, ok := sass.BasicBlocks(insts)
	leaders := map[int]bool{}
	if ok {
		for _, b := range blocks {
			leaders[b.Start] = true
		}
	} else {
		fmt.Println("  // indirect control flow: flat view only")
	}
	for i, in := range insts {
		if leaders[i] && i != 0 {
			fmt.Printf(".L%x:\n", i)
		}
		line := ""
		if i < len(lines) && lines[i] > 0 {
			line = fmt.Sprintf("  // line %d", lines[i])
		}
		fmt.Printf("  /*%04x*/  %-50s%s\n", i, sass.Format(in), line)
	}
}
