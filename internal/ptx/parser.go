package ptx

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nvbitgo/internal/sass"
)

type pparam struct {
	name  string
	bytes int
}

type pshared struct {
	name   string
	bytes  int
	offset int
}

// ptype is a statement's type suffix, one bit each so that a rule row can
// name the set it accepts. The suffix is the last place operand types exist:
// the register file the statement lowers to is untyped.
type ptype uint16

const (
	tU32 ptype = 1 << iota
	tS32
	tB32
	tF32
	tU64
	tS64
	tB64
	tPred

	tI32 = tU32 | tS32 | tB32
	tI64 = tU64 | tS64 | tB64
	t32  = tI32 | tF32
)

var typeNames = map[string]ptype{
	"u32": tU32, "s32": tS32, "b32": tB32, "f32": tF32,
	"u64": tU64, "s64": tS64, "b64": tB64, "pred": tPred,
}

// opdKind classifies an operand by its syntax alone.
type opdKind uint8

const (
	opdReg     opdKind = iota // %name; neg marks a !%p predicate
	opdImm                    // integer, or the bit pattern of a float
	opdSpecial                // %tid.x and friends; imm is the S2R selector
	opdSym                    // bare name: label, function or shared symbol
	opdMemReg                 // [%reg ± imm]
	opdMemSym                 // [name ± imm]; the absolute [imm] has no name
	opdList                   // (a, b, ...): call arguments and results
)

type operand struct {
	kind opdKind
	neg  bool
	name string
	imm  int64
	list []operand
}

// pstmt is one typed statement: the mnemonic split into opcode, modifiers
// and type suffixes, and every operand parsed, once.
type pstmt struct {
	line  int
	guard operand // kind opdReg with a name when the statement is guarded
	mnem  string  // full mnemonic, for diagnostics
	op    string  // opcode: the mnemonic up to its first '.'
	mods  string  // modifiers between the opcode and the type suffix
	typ   ptype   // type suffix; for cvt the destination type
	from  ptype   // cvt only: the source type
	args  []operand
}

type pfunc struct {
	name   string
	entry  bool
	params []pparam
	regs   map[string]RegClass
	regOrd []string // declaration order, for deterministic allocation
	shared []pshared
	body   []pstmt
	labels map[string]int
	tool   bool // .toolfunc: locals sit right above the ABI registers
}

type pmodule struct {
	funcs []*pfunc
}

// parse splits the source into functions, declarations and statements.
// The grammar is line-tolerant: statements end with ';', labels with ':',
// function bodies are brace-delimited.
func parse(src string) (*pmodule, error) {
	m := &pmodule{}
	var cur *pfunc
	// Every function's statements live in one array sized up front (a ';'
	// ends each): a body is the next free stretch of it, not a slice grown
	// statement by statement. A malformed source can hold more statements
	// than ';'; its body then outgrows the array into one of its own.
	free := make([]pstmt, 0, strings.Count(src, ";"))
	line := 0
	var pending strings.Builder // accumulates until ';', '{', or '}'

	flush := func(stmtLine int, text string) error {
		text = strings.TrimSpace(text)
		if text == "" {
			return nil
		}
		switch {
		case strings.HasPrefix(text, ".version"), strings.HasPrefix(text, ".target"),
			strings.HasPrefix(text, ".address_size"):
			return nil // accepted and ignored module directives
		case strings.HasPrefix(text, ".visible") || strings.HasPrefix(text, ".entry") ||
			strings.HasPrefix(text, ".func") || strings.HasPrefix(text, ".toolfunc"):
			if cur != nil {
				return fmt.Errorf("line %d: nested function declaration", stmtLine)
			}
			f, err := parseHeader(text, stmtLine)
			if err != nil {
				return err
			}
			cur = f
			cur.body = free[:0]
			return nil
		}
		if cur == nil {
			return fmt.Errorf("line %d: statement %q outside a function", stmtLine, text)
		}
		switch {
		case strings.HasPrefix(text, ".reg"):
			return parseRegDecl(cur, text, stmtLine)
		case strings.HasPrefix(text, ".shared"):
			return parseSharedDecl(cur, text, stmtLine)
		}
		st, err := parseStmt(text, stmtLine)
		if err != nil {
			return err
		}
		cur.body = append(cur.body, st)
		return nil
	}

	for _, raw := range strings.Split(src, "\n") {
		line++
		s := raw
		if i := strings.Index(s, "//"); i >= 0 {
			s = s[:i]
		}
		for len(s) > 0 {
			cut := strings.IndexAny(s, ";{}:")
			if cut < 0 {
				pending.WriteString(s)
				pending.WriteByte(' ')
				break
			}
			pending.WriteString(s[:cut])
			tok := s[cut]
			s = s[cut+1:]
			text := pending.String()
			pending.Reset()
			switch tok {
			case ';':
				if err := flush(line, text); err != nil {
					return nil, err
				}
			case '{':
				if err := flush(line, text); err != nil {
					return nil, err
				}
				if cur == nil {
					return nil, fmt.Errorf("line %d: '{' outside a function header", line)
				}
			case '}':
				if strings.TrimSpace(text) != "" {
					return nil, fmt.Errorf("line %d: statement %q missing ';'", line, text)
				}
				if cur == nil {
					return nil, fmt.Errorf("line %d: unmatched '}'", line)
				}
				m.funcs = append(m.funcs, cur)
				if n := len(cur.body); n <= cap(free) {
					free = free[n:cap(free)]
				}
				cur = nil
			case ':':
				name := strings.TrimSpace(text)
				if cur == nil || name == "" || strings.ContainsAny(name, " \t.%") {
					// Not a label (e.g. inside an operand we don't have);
					// treat as error for clarity.
					return nil, fmt.Errorf("line %d: bad label %q", line, name)
				}
				if _, dup := cur.labels[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate label %q", line, name)
				}
				cur.labels[name] = len(cur.body)
			}
		}
		// Module-level directives (.version, .target, .address_size) are
		// newline-terminated rather than ';'-terminated; drop them here so
		// they do not glue onto the next statement.
		if p := strings.TrimSpace(pending.String()); p != "" {
			for _, dir := range []string{".version", ".target", ".address_size"} {
				if strings.HasPrefix(p, dir) {
					pending.Reset()
					break
				}
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("unterminated function %q", cur.name)
	}
	if strings.TrimSpace(pending.String()) != "" {
		return nil, fmt.Errorf("trailing tokens %q", strings.TrimSpace(pending.String()))
	}
	if len(m.funcs) == 0 {
		return nil, fmt.Errorf("no functions in module")
	}
	return m, nil
}

func parseHeader(text string, line int) (*pfunc, error) {
	f := &pfunc{regs: make(map[string]RegClass), labels: make(map[string]int)}
	s := strings.TrimSpace(strings.TrimPrefix(text, ".visible"))
	switch {
	case strings.HasPrefix(s, ".entry"):
		f.entry = true
		s = strings.TrimSpace(strings.TrimPrefix(s, ".entry"))
	case strings.HasPrefix(s, ".toolfunc"):
		// NVBit instrumentation functions: callable only from trampolines
		// (which save all caller state), so their locals may sit right
		// above the ABI argument registers. See deviceABI in ptx.go.
		f.tool = true
		s = strings.TrimSpace(strings.TrimPrefix(s, ".toolfunc"))
	case strings.HasPrefix(s, ".func"):
		s = strings.TrimSpace(strings.TrimPrefix(s, ".func"))
	default:
		return nil, fmt.Errorf("line %d: expected .entry or .func in %q", line, text)
	}
	open := strings.Index(s, "(")
	if open < 0 {
		f.name = strings.TrimSpace(s)
		if f.name == "" {
			return nil, fmt.Errorf("line %d: missing function name", line)
		}
		return f, nil
	}
	f.name = strings.TrimSpace(s[:open])
	closeIdx := strings.LastIndex(s, ")")
	if closeIdx < open {
		return nil, fmt.Errorf("line %d: unterminated parameter list", line)
	}
	plist := strings.TrimSpace(s[open+1 : closeIdx])
	if plist == "" {
		return f, nil
	}
	for _, p := range strings.Split(plist, ",") {
		fields := strings.Fields(strings.TrimSpace(p))
		// ".param" ".u64" "name"
		if len(fields) != 3 || fields[0] != ".param" {
			return nil, fmt.Errorf("line %d: bad parameter %q", line, p)
		}
		var bytes int
		switch fields[1] {
		case ".u64", ".s64", ".b64", ".f64":
			bytes = 8
		case ".u32", ".s32", ".b32", ".f32":
			bytes = 4
		default:
			return nil, fmt.Errorf("line %d: unsupported parameter type %q", line, fields[1])
		}
		f.params = append(f.params, pparam{name: fields[2], bytes: bytes})
	}
	return f, nil
}

func regClassOf(typ string) (RegClass, error) {
	switch typ {
	case ".u32", ".s32", ".b32", ".f32":
		return ClassB32, nil
	case ".u64", ".s64", ".b64":
		return ClassB64, nil
	case ".pred":
		return ClassPred, nil
	}
	return 0, fmt.Errorf("unsupported register type %q", typ)
}

// parseRegDecl handles ".reg .u32 %r<16>" (a family) and ".reg .u32 %x" (a
// single register).
func parseRegDecl(f *pfunc, text string, line int) error {
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return fmt.Errorf("line %d: bad register declaration %q", line, text)
	}
	class, err := regClassOf(fields[1])
	if err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	name := fields[2]
	if i := strings.Index(name, "<"); i >= 0 {
		if !strings.HasSuffix(name, ">") {
			return fmt.Errorf("line %d: bad register family %q", line, name)
		}
		var n int
		if _, err := fmt.Sscanf(name[i+1:len(name)-1], "%d", &n); err != nil || n <= 0 || n > 256 {
			return fmt.Errorf("line %d: bad register family count in %q", line, name)
		}
		prefix := name[:i]
		for k := 0; k < n; k++ {
			r := fmt.Sprintf("%s%d", prefix, k)
			if _, dup := f.regs[r]; dup {
				return fmt.Errorf("line %d: register %q redeclared", line, r)
			}
			f.regs[r] = class
			f.regOrd = append(f.regOrd, r)
		}
		return nil
	}
	if !strings.HasPrefix(name, "%") {
		return fmt.Errorf("line %d: register name %q must start with %%", line, name)
	}
	if _, dup := f.regs[name]; dup {
		return fmt.Errorf("line %d: register %q redeclared", line, name)
	}
	f.regs[name] = class
	f.regOrd = append(f.regOrd, name)
	return nil
}

// parseSharedDecl handles ".shared .b8 name[1024]".
func parseSharedDecl(f *pfunc, text string, line int) error {
	fields := strings.Fields(text)
	if len(fields) != 3 || fields[1] != ".b8" {
		return fmt.Errorf("line %d: bad shared declaration %q (want .shared .b8 name[N])", line, text)
	}
	name := fields[2]
	open := strings.Index(name, "[")
	if open < 0 || !strings.HasSuffix(name, "]") {
		return fmt.Errorf("line %d: bad shared array %q", line, name)
	}
	var n int
	if _, err := fmt.Sscanf(name[open+1:len(name)-1], "%d", &n); err != nil || n <= 0 {
		return fmt.Errorf("line %d: bad shared size in %q", line, name)
	}
	off := 0
	if k := len(f.shared); k > 0 {
		prev := f.shared[k-1]
		off = (prev.offset + prev.bytes + 7) &^ 7
	}
	f.shared = append(f.shared, pshared{name: name[:open], bytes: n, offset: off})
	return nil
}

func parseStmt(text string, line int) (pstmt, error) {
	st := pstmt{line: line}
	s := strings.TrimSpace(text)
	var err error
	if strings.HasPrefix(s, "@") {
		sp := strings.IndexAny(s, " \t")
		if sp < 0 {
			return st, fmt.Errorf("line %d: guard without instruction in %q", line, text)
		}
		if st.guard, err = parseOperand(s[1:sp]); err != nil || st.guard.kind != opdReg {
			return st, fmt.Errorf("line %d: bad guard %q", line, s[:sp])
		}
		s = strings.TrimSpace(s[sp:])
	}
	rest := ""
	if sp := strings.IndexAny(s, " \t"); sp >= 0 {
		s, rest = s[:sp], strings.TrimSpace(s[sp:])
	}
	st.mnem = s
	st.op, s, _ = strings.Cut(s, ".")
	// Peel up to two type suffixes off the end; what is left are modifiers.
	for n := 0; n < 2 && s != ""; n++ {
		i := strings.LastIndexByte(s, '.')
		t, ok := typeNames[s[i+1:]]
		if !ok {
			break
		}
		st.from, st.typ = st.typ, t
		s = s[:max(i, 0)]
	}
	st.mods = s
	if rest != "" {
		if st.args, err = parseOperands(rest); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
	}
	return st, nil
}

// parseOperands splits on top-level commas (commas inside parentheses
// belong to the call syntax's lists) and parses each piece.
func parseOperands(s string) ([]operand, error) {
	out := make([]operand, 0, strings.Count(s, ",")+1)
	depth, start := 0, 0
	for i := 0; i <= len(s); i++ {
		switch {
		case i < len(s) && s[i] == '(':
			depth++
		case i < len(s) && s[i] == ')':
			depth--
		case i == len(s) || s[i] == ',' && depth == 0:
			o, err := parseOperand(strings.TrimSpace(s[start:i]))
			if err != nil {
				return nil, err
			}
			out = append(out, o)
			start = i + 1
		}
	}
	return out, nil
}

func parseOperand(s string) (operand, error) {
	bad := func() (operand, error) { return operand{}, fmt.Errorf("bad operand %q", s) }
	switch {
	case s == "":
		return bad()
	case s[0] == '[':
		return parseMemOperand(s)
	case s[0] == '(':
		if len(s) < 2 || s[len(s)-1] != ')' || strings.ContainsAny(s[1:len(s)-1], "()") {
			return bad() // lists do not nest
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		o := operand{kind: opdList}
		var err error
		if inner != "" {
			o.list, err = parseOperands(inner)
		}
		return o, err
	case s[0] == '%' || s[0] == '!':
		o := operand{kind: opdReg, neg: s[0] == '!', name: strings.TrimPrefix(s, "!")}
		if id, ok := specialRegs[o.name]; ok && !o.neg {
			return operand{kind: opdSpecial, name: o.name, imm: id}, nil
		}
		if len(o.name) < 2 || o.name[0] != '%' {
			return bad()
		}
		return o, nil
	case s[0] >= '0' && s[0] <= '9' || strings.IndexByte("+-.", s[0]) >= 0:
		v, ok := immValue(s)
		if !ok {
			return bad()
		}
		return operand{kind: opdImm, imm: v}, nil
	}
	return operand{kind: opdSym, name: s}, nil
}

// parseMemOperand parses "[%rd1+8]", "[%r2]", "[sym]", "[sym-4]" and the
// absolute "[8]": one base, at most one signed literal offset.
func parseMemOperand(s string) (operand, error) {
	bad := func() (operand, error) { return operand{}, fmt.Errorf("bad memory operand %q", s) }
	if len(s) < 3 || s[len(s)-1] != ']' {
		return bad()
	}
	base := strings.TrimSpace(s[1 : len(s)-1])
	o := operand{kind: opdMemSym}
	if i := strings.IndexAny(base[min(1, len(base)):], "+-"); i >= 0 {
		off := strings.TrimSpace(base[i+2:])
		if off == "" || off[0] < '0' || off[0] > '9' {
			return bad()
		}
		v, err := strconv.ParseInt(off, 0, 64)
		if err != nil {
			return bad()
		}
		if base[i+1] == '-' {
			v = -v
		}
		o.imm, base = v, strings.TrimSpace(base[:i+1])
	}
	switch {
	case base == "" || strings.ContainsAny(base, " \t[]()!,"):
		return bad()
	case base[0] == '%':
		o.kind, o.name = opdMemReg, base
	case base[0] >= '0' && base[0] <= '9' || base[0] == '-':
		v, err := strconv.ParseInt(base, 0, 64)
		if err != nil {
			return bad()
		}
		o.imm += v
	default:
		o.name = base
	}
	return o, nil
}

// immValue parses integer immediates and float immediates (decimal like 1.5
// or PTX hex-float 0F3f800000); floats are returned as their bit patterns.
func immValue(arg string) (int64, bool) {
	if strings.HasPrefix(arg, "0F") || strings.HasPrefix(arg, "0f") {
		bits, err := strconv.ParseUint(arg[2:], 16, 32)
		return int64(bits), err == nil
	}
	if strings.ContainsAny(arg, ".eE") && !strings.HasPrefix(arg, "0x") {
		f, err := strconv.ParseFloat(arg, 32)
		return int64(math.Float32bits(float32(f))), err == nil
	}
	if v, err := strconv.ParseInt(arg, 0, 64); err == nil {
		return v, true
	}
	u, err := strconv.ParseUint(arg, 0, 64)
	return int64(u), err == nil
}

var specialRegs = map[string]int64{
	"%laneid":   sass.SRLaneID,
	"%warpid":   sass.SRWarpID,
	"%tid.x":    sass.SRTIDX,
	"%tid.y":    sass.SRTIDY,
	"%tid.z":    sass.SRTIDZ,
	"%ctaid.x":  sass.SRCTAIDX,
	"%ctaid.y":  sass.SRCTAIDY,
	"%ctaid.z":  sass.SRCTAIDZ,
	"%ntid.x":   sass.SRNTIDX,
	"%ntid.y":   sass.SRNTIDY,
	"%ntid.z":   sass.SRNTIDZ,
	"%nctaid.x": sass.SRNCTAIDX,
	"%nctaid.y": sass.SRNCTAIDY,
	"%nctaid.z": sass.SRNCTAIDZ,
	"%clock":    sass.SRClock,
	"%smid":     sass.SRSMID,
}
