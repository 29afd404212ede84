package ptx

import (
	"fmt"
	"math"
	"slices"
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

// operand is one parsed operand, 16 bytes. A register whose declaration
// precedes it is resolved where it is parsed, to the declaration (ref) and
// the index in its family (k); one used before its declaration keeps its name
// until the statement is lowered. Names are entries of pmodule.names.
type operand struct {
	kind opdKind
	neg  bool
	k    uint16 // resolved register: index in its family; unresolved if ref is a name
	ref  int32  // resolved register: index in pfunc.regs; list: member count; else index of the name
	imm  int64  // list: index of the first member in pmodule.members
}

// unresolved in k marks an operand that carries a name.
const unresolved = 0xFFFF

// pstmt is one statement: its form, its line and its operands, which are
// nargs consecutive entries of pmodule.ops from args on; the guard of a
// guarded statement is the entry before them.
type pstmt struct {
	line    int32
	form    int32 // index into pmodule.forms
	args    int32
	nargs   int32
	guarded bool
}

// pform is one distinct mnemonic of a function, split into opcode, modifiers
// and type suffixes and matched against the rule table once, however many
// statements use it.
type pform struct {
	mnem string // full mnemonic, for diagnostics
	typ  ptype  // type suffix; for cvt the destination type
	sub  int32  // the sub-op its modifiers select
	rule *rule  // nil: no row accepts the mnemonic
}

// pregs is one .reg declaration: a family %prefix0..%prefix<n-1>, or the
// single register named prefix when n is 0. A member is resolved by prefix
// and decimal index, never by building its name. base is the physical
// register (predicate index for ClassPred) compileFunc gives member 0.
type pregs struct {
	prefix string
	class  RegClass
	n      int
	base   sass.Reg
}

type pfunc struct {
	name   string
	entry  bool
	tool   bool // .toolfunc: locals are allocated by live range (colour.go)
	params []pparam
	regs   []pregs // declaration order, which is allocation order
	shared []pshared
	body   []pstmt        // a stretch of pmodule.stmts
	labels map[string]int // label -> index in body of the statement it precedes

	bodyLo, formLo int // where body and the function's forms start in their arenas
	// dead: a statement no row accepts was seen. Lowering stops there, so
	// the forms of later statements are not looked up.
	dead bool
}

// pmodule is a parsed module. Statements, operands and forms of all its
// functions live in one array each.
type pmodule struct {
	funcs   []*pfunc
	stmts   []pstmt
	ops     []operand
	members []operand // of call lists
	names   []string
	forms   []pform
}

// name is the name an operand carries, "" for none.
func (m *pmodule) name(o *operand) string {
	if o.k != unresolved {
		return ""
	}
	return m.names[o.ref]
}

// named makes o an operand of the given kind carrying a name.
func (m *pmodule) named(o *operand, kind opdKind, name string) {
	o.kind, o.k, o.ref = kind, unresolved, int32(len(m.names))
	m.names = append(m.names, name)
}

// register makes o the operand for a register name, resolved if the function
// has declared it.
func (p *parser) register(o *operand, kind opdKind, name string) {
	if d, k := p.cur.findReg(name); d >= 0 {
		o.kind, o.k, o.ref = kind, uint16(k), int32(d)
	} else {
		p.m.named(o, kind, name)
	}
}

// Byte classes of the statement scanner.
const (
	cOther = iota
	cBlank // space, tab, carriage return
	cLine  // newline
	cSlash // may open a comment
	cTerm  // ; { } :
)

var byteClass = [256]uint8{
	' ': cBlank, '\t': cBlank, '\r': cBlank, '\n': cLine, '/': cSlash,
	';': cTerm, '{': cTerm, '}': cTerm, ':': cTerm,
}

func isBlank(c byte) bool { return byteClass[c] == cBlank }

// trim drops leading and trailing blanks.
func trim(s string) string {
	for s != "" && isBlank(s[0]) {
		s = s[1:]
	}
	for s != "" && isBlank(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// nextWord splits off the first blank-delimited word of s.
func nextWord(s string) (word, rest string) {
	s = trim(s)
	for i := 0; i < len(s); i++ {
		if isBlank(s[i]) {
			return s[:i], trim(s[i:])
		}
	}
	return s, ""
}

// joinLines is the text of a stretch of source that line breaks or comments
// interrupt: comments dropped, a space where a line ended.
func joinLines(s string) string {
	b := make([]byte, 0, len(s))
	for {
		frag, rest, more := strings.Cut(s, "\n")
		if c := strings.Index(frag, "//"); c >= 0 {
			frag = frag[:c]
		}
		b = append(b, frag...)
		if !more {
			return string(b)
		}
		if frag != "" {
			b = append(b, ' ')
		}
		s = rest
	}
}

// isDirective recognises the module directives that are accepted and
// ignored. They end with their line rather than with ';'.
func isDirective(s string) bool {
	return strings.HasPrefix(s, ".version") || strings.HasPrefix(s, ".target") ||
		strings.HasPrefix(s, ".address_size")
}

type parser struct {
	m   *pmodule
	cur *pfunc
}

// parse splits the source into functions, declarations and statements in one
// pass. Blanks, line breaks and // comments separate tokens; statements end
// with ';', labels with ':', function bodies are brace-delimited. A statement
// is a substring of the source unless a line break or comment interrupts it.
func parse(src string) (*pmodule, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("source of %d bytes is too large", len(src)) // arenas are indexed in 32 bits
	}
	// The arenas are sized up front: a ';' ends each statement, and a ',' or
	// the statement's end each operand, with one more for a guard. A
	// malformed source can hold more; its arenas then grow.
	nstmt := strings.Count(src, ";")
	m := &pmodule{
		stmts: make([]pstmt, 0, nstmt),
		ops:   make([]operand, 0, nstmt+strings.Count(src, ",")+strings.Count(src, "@")),
		names: make([]string, 0, 16),
		forms: make([]pform, 0, 16),
	}
	p := parser{m: m}
	line := 1
	raw := 0        // just past the last terminator or dropped directive
	start := -1     // first byte of the pending text, -1 while only blanks were seen
	broken := false // a line break or comment lies inside the pending text
	for i := 0; i < len(src); i++ {
		switch c := src[i]; byteClass[c] {
		case cOther:
			if start < 0 {
				start = i
			}
			for i+1 < len(src) && byteClass[src[i+1]] <= cBlank {
				i++
			}
		case cLine:
			line++
			if start >= 0 {
				if broken = true; isDirective(src[start:]) {
					start, broken, raw = -1, false, i+1
				}
			}
		case cSlash:
			if i+1 < len(src) && src[i+1] == '/' {
				broken = broken || start >= 0
				if nl := strings.IndexByte(src[i:], '\n'); nl >= 0 {
					i += nl - 1
				} else {
					i = len(src)
				}
			} else if start < 0 {
				start = i
			}
		case cTerm:
			text := ""
			if start >= 0 {
				if text = src[start:i]; broken {
					text = joinLines(text)
				}
				text = trim(text)
			}
			var err error
			switch c {
			case ';':
				err = p.flush(text, line)
			case '{':
				if err = p.flush(text, line); err == nil && p.cur == nil {
					err = fmt.Errorf("line %d: '{' outside a function header", line)
				}
			case '}':
				switch {
				case text != "":
					err = fmt.Errorf("line %d: statement %q missing ';'", line, joinLines(src[raw:i]))
				case p.cur == nil:
					err = fmt.Errorf("line %d: unmatched '}'", line)
				default:
					p.cur.body = m.stmts[p.cur.bodyLo:]
					m.funcs = append(m.funcs, p.cur)
					p.cur = nil
				}
			case ':':
				err = p.label(text, line)
			}
			if err != nil {
				return nil, err
			}
			start, broken, raw = -1, false, i+1
		}
	}
	if p.cur != nil {
		return nil, fmt.Errorf("unterminated function %q", p.cur.name)
	}
	if start >= 0 && !isDirective(src[start:]) {
		return nil, fmt.Errorf("trailing tokens %q", trim(joinLines(src[start:])))
	}
	if len(m.funcs) == 0 {
		return nil, fmt.Errorf("no functions in module")
	}
	return m, nil
}

func (p *parser) label(name string, line int) error {
	f := p.cur
	if f == nil || name == "" || strings.ContainsAny(name, " \t\r.%") {
		return fmt.Errorf("line %d: bad label %q", line, name)
	}
	if _, dup := f.labels[name]; dup {
		return fmt.Errorf("line %d: duplicate label %q", line, name)
	}
	if f.labels == nil {
		f.labels = make(map[string]int)
	}
	f.labels[name] = len(p.m.stmts) - f.bodyLo
	return nil
}

// flush takes the text a ';' or '{' ended: a directive, a function header, a
// declaration or a statement.
func (p *parser) flush(text string, line int) error {
	dot := text != "" && text[0] == '.' // only then is it anything but a statement
	switch {
	case text == "" || dot && isDirective(text):
		return nil
	case dot && (strings.HasPrefix(text, ".visible") || strings.HasPrefix(text, ".entry") ||
		strings.HasPrefix(text, ".func") || strings.HasPrefix(text, ".toolfunc")):
		if p.cur != nil {
			return fmt.Errorf("line %d: nested function declaration", line)
		}
		f, err := parseHeader(text, line)
		if err == nil {
			f.bodyLo, f.formLo = len(p.m.stmts), len(p.m.forms)
			p.cur = f
		}
		return err
	case p.cur == nil:
		return fmt.Errorf("line %d: statement %q outside a function", line, text)
	case dot && strings.HasPrefix(text, ".reg"):
		return parseRegDecl(p.cur, text, line)
	case dot && strings.HasPrefix(text, ".shared"):
		return parseSharedDecl(p.cur, text, line)
	}
	return p.stmt(text, line)
}

func parseHeader(text string, line int) (*pfunc, error) {
	f := &pfunc{}
	s, ok := strings.CutPrefix(trim(strings.TrimPrefix(text, ".visible")), ".entry")
	if f.entry = ok; !ok {
		// NVBit instrumentation functions: callable only from trampolines
		// (which save the prefix of the register file they reach), so
		// their locals may take any register but the arguments; colour.go
		// allocates them by live range.
		if s, f.tool = strings.CutPrefix(s, ".toolfunc"); !f.tool {
			if s, ok = strings.CutPrefix(s, ".func"); !ok {
				return nil, fmt.Errorf("line %d: expected .entry or .func in %q", line, text)
			}
		}
	}
	s = trim(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if f.name = s; s == "" {
			return nil, fmt.Errorf("line %d: missing function name", line)
		}
		return f, nil
	}
	f.name = trim(s[:open])
	closeIdx := strings.LastIndexByte(s, ')')
	if closeIdx < open {
		return nil, fmt.Errorf("line %d: unterminated parameter list", line)
	}
	plist := trim(s[open+1 : closeIdx])
	if plist == "" {
		return f, nil
	}
	f.params = make([]pparam, 0, strings.Count(plist, ",")+1)
	for more := true; more; {
		var p string
		p, plist, more = strings.Cut(plist, ",")
		// ".param" ".u64" "name"
		kw, rest := nextWord(p)
		typ, rest := nextWord(rest)
		name, rest := nextWord(rest)
		if kw != ".param" || name == "" || rest != "" {
			return nil, fmt.Errorf("line %d: bad parameter %q", line, p)
		}
		var bytes int
		switch typ {
		case ".u64", ".s64", ".b64", ".f64":
			bytes = 8
		case ".u32", ".s32", ".b32", ".f32":
			bytes = 4
		default:
			return nil, fmt.Errorf("line %d: unsupported parameter type %q", line, typ)
		}
		f.params = append(f.params, pparam{name: name, bytes: bytes})
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

// decimal reads an all-digit decimal of at most max.
func decimal(s string, max int) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		d := int(s[i] - '0')
		if d > 9 || d > max || n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, s != ""
}

// findReg resolves a register name against the function's declarations: a
// single register by its name, a family member by the family's prefix
// followed by the canonical decimal of an index below its count. It returns
// the declaration's index in f.regs, -1 for none, and the member's index.
func (f *pfunc) findReg(name string) (decl, k int) {
	for i := range f.regs {
		d := &f.regs[i]
		// Prefixes are two or three bytes: a loop beats a call.
		j := 0
		for j < len(d.prefix) && j < len(name) && name[j] == d.prefix[j] {
			j++
		}
		if j < len(d.prefix) {
			continue
		}
		idx := name[j:]
		if d.n == 0 {
			if idx == "" {
				return i, 0
			}
		} else if k, ok := decimal(idx, d.n-1); ok && (idx[0] != '0' || len(idx) == 1) {
			return i, k
		}
	}
	return -1, 0
}

// parseRegDecl handles ".reg .u32 %r<16>" (a family) and ".reg .u32 %x" (a
// single register).
func parseRegDecl(f *pfunc, text string, line int) error {
	_, rest := nextWord(text)
	typ, rest := nextWord(rest)
	name, rest := nextWord(rest)
	if name == "" || rest != "" {
		return fmt.Errorf("line %d: bad register declaration %q", line, text)
	}
	class, err := regClassOf(typ)
	if err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	i := strings.IndexByte(name, '<')
	if i < 0 {
		if !strings.HasPrefix(name, "%") {
			return fmt.Errorf("line %d: register name %q must start with %%", line, name)
		}
		if d, _ := f.findReg(name); d >= 0 {
			return fmt.Errorf("line %d: register %q redeclared", line, name)
		}
		f.regs = append(f.regs, pregs{prefix: name, class: class})
		return nil
	}
	if !strings.HasSuffix(name, ">") {
		return fmt.Errorf("line %d: bad register family %q", line, name)
	}
	n, ok := decimal(name[i+1:len(name)-1], 256)
	if !ok || n == 0 {
		return fmt.Errorf("line %d: bad register family count in %q", line, name)
	}
	prefix := name[:i]
	// A member can only collide with a declaration whose name continues
	// this prefix with a digit, or whose prefix this one continues so; the
	// members are spelled out only then.
	for j := range f.regs {
		long, short := f.regs[j].prefix, prefix
		if len(long) < len(short) {
			long, short = short, long
		}
		if !strings.HasPrefix(long, short) || len(long) > len(short) && (long[len(short)] < '0' || long[len(short)] > '9') {
			continue
		}
		for k := 0; k < n; k++ {
			r := prefix + strconv.Itoa(k)
			if d, _ := f.findReg(r); d >= 0 {
				return fmt.Errorf("line %d: register %q redeclared", line, r)
			}
		}
		break
	}
	f.regs = append(f.regs, pregs{prefix: prefix, class: class, n: n})
	return nil
}

// parseSharedDecl handles ".shared .b8 name[1024]".
func parseSharedDecl(f *pfunc, text string, line int) error {
	_, rest := nextWord(text)
	typ, rest := nextWord(rest)
	name, rest := nextWord(rest)
	if name == "" || rest != "" || typ != ".b8" {
		return fmt.Errorf("line %d: bad shared declaration %q (want .shared .b8 name[N])", line, text)
	}
	open := strings.IndexByte(name, '[')
	if open < 0 || !strings.HasSuffix(name, "]") {
		return fmt.Errorf("line %d: bad shared array %q", line, name)
	}
	n, ok := decimal(name[open+1:len(name)-1], math.MaxInt)
	if !ok || n == 0 {
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

// stmt parses "[@guard] mnemonic [operands]" into the module's arenas.
func (p *parser) stmt(text string, line int) error {
	m, f := p.m, p.cur
	st := pstmt{line: int32(line)}
	s := text
	if s[0] == '@' {
		var g string
		if g, s = nextWord(s); s == "" {
			return fmt.Errorf("line %d: guard without instruction in %q", line, text)
		}
		var o operand
		if err := p.operand(g[1:], &o); err != nil || o.kind != opdReg {
			return fmt.Errorf("line %d: bad guard %q", line, g)
		}
		m.ops, st.guarded = append(m.ops, o), true
	}
	mnem, rest := nextWord(s)
	if !f.dead {
		st.form = p.form(mnem)
		f.dead = m.forms[st.form].rule == nil
	}
	st.args = int32(len(m.ops))
	if rest != "" {
		n, err := p.operands(rest, &m.ops)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		st.nargs = int32(n)
	}
	m.stmts = append(m.stmts, st)
	return nil
}

// splitMnemonic peels up to two type suffixes off the end of a mnemonic;
// what is left after the opcode are modifiers.
func splitMnemonic(mnem string) (op, mods string, typ, from ptype) {
	op, mods, _ = strings.Cut(mnem, ".")
	for n := 0; n < 2 && mods != ""; n++ {
		i := strings.LastIndexByte(mods, '.')
		t, ok := typeNames[mods[i+1:]]
		if !ok {
			break
		}
		from, typ = typ, t
		mods = mods[:max(i, 0)]
	}
	return op, mods, typ, from
}

// form returns the function's form for a mnemonic, matching it against the
// rule table the first time it is seen.
func (p *parser) form(mnem string) int32 {
	forms := p.m.forms
	for i := p.cur.formLo; i < len(forms); i++ {
		if forms[i].mnem == mnem {
			return int32(i)
		}
	}
	op, mods, typ, from := splitMnemonic(mnem)
	r, sub := selectRule(op, mods, typ, from, p.cur.entry)
	p.m.forms = append(forms, pform{mnem: mnem, typ: typ, sub: int32(sub), rule: r})
	return int32(len(forms))
}

// operands splits on top-level commas (commas inside parentheses belong to
// the call syntax's lists), appends each piece parsed to dst and returns how
// many there were. A piece is parsed into its place in dst: what parsing it
// appends (names, a list's members) goes to other arrays.
func (p *parser) operands(s string, dst *[]operand) (int, error) {
	for n := 1; ; n++ {
		end, depth := 0, 0
		for ; end < len(s) && (s[end] != ',' || depth != 0); end++ {
			switch s[end] {
			case '(':
				depth++
			case ')':
				depth--
			}
		}
		*dst = append(*dst, operand{})
		if err := p.operand(trim(s[:end]), &(*dst)[len(*dst)-1]); err != nil {
			return 0, err
		}
		if end == len(s) {
			return n, nil
		}
		s = s[end+1:]
	}
}

func (p *parser) operand(s string, o *operand) error {
	bad := func() error { return fmt.Errorf("bad operand %q", s) }
	if s == "" {
		return bad()
	}
	switch c := s[0]; {
	case c == '%' || c == '!':
		name := s
		if c == '!' {
			name, o.neg = s[1:], true
		} else if last := s[len(s)-1]; last < '0' || last > '9' { // a special register ends in a letter
			if sel := slices.Index(specialNames[:], s); sel >= 0 {
				o.kind, o.imm = opdSpecial, int64(sel)
				return nil
			}
		}
		if len(name) < 2 || name[0] != '%' {
			return bad()
		}
		p.register(o, opdReg, name)
	case c == '[':
		return p.memOperand(s, o)
	case c == '(':
		if len(s) < 2 || s[len(s)-1] != ')' || strings.ContainsAny(s[1:len(s)-1], "()") {
			return bad() // lists do not nest
		}
		o.kind, o.imm = opdList, int64(len(p.m.members))
		if inner := trim(s[1 : len(s)-1]); inner != "" {
			n, err := p.operands(inner, &p.m.members)
			o.ref = int32(n)
			return err
		}
	case c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.':
		v, ok := immValue(s)
		if !ok {
			return bad()
		}
		o.kind, o.imm = opdImm, v
	default:
		p.m.named(o, opdSym, s)
	}
	return nil
}

// memOperand parses "[%rd1+8]", "[%r2]", "[sym]", "[sym-4]" and the absolute
// "[8]": one base, at most one signed literal offset.
func (p *parser) memOperand(s string, o *operand) error {
	bad := func() error { return fmt.Errorf("bad memory operand %q", s) }
	if len(s) < 3 || s[len(s)-1] != ']' {
		return bad()
	}
	base := trim(s[1 : len(s)-1])
	// The offset's sign is the first '+' or '-' past the base's first byte
	// (which may be the '-' of an absolute address).
	for i := 1; i < len(base); i++ {
		if base[i] != '+' && base[i] != '-' {
			continue
		}
		lit := trim(base[i+1:])
		if lit == "" || lit[0] < '0' || lit[0] > '9' {
			return bad()
		}
		v, ok := intLit(lit, false)
		if !ok {
			return bad()
		}
		if base[i] == '-' {
			v = -v
		}
		o.imm, base = v, trim(base[:i])
		break
	}
	if base == "" {
		return bad()
	}
	for i := 0; i < len(base); i++ {
		switch base[i] {
		case ' ', '\t', '\r', '[', ']', '(', ')', '!', ',':
			return bad()
		}
	}
	switch c := base[0]; {
	case c == '%':
		p.register(o, opdMemReg, base)
	case c >= '0' && c <= '9' || c == '-':
		v, ok := intLit(base, false)
		if !ok {
			return bad()
		}
		o.kind, o.imm = opdMemSym, o.imm+v
	default:
		p.m.named(o, opdMemSym, base)
	}
	return nil
}

// intLit reads an integer literal of PTX's grammar: an optional sign, then
// decimal digits, 0x hex, 0b binary or leading-0 octal. The value must fit
// an int64; with wrap an unsigned literal may use all 64 bits.
func intLit(s string, wrap bool) (int64, bool) {
	digits, base := s, 10
	if s != "" && (s[0] == '+' || s[0] == '-') {
		digits = s[1:]
	}
	if len(digits) > 1 && digits[0] == '0' {
		switch digits[1] {
		case 'x', 'X':
			digits, base = digits[2:], 16
		case 'b', 'B':
			digits, base = digits[2:], 2
		default:
			digits, base = digits[1:], 8
		}
	}
	// With an explicit base ParseUint takes digits only: no sign, no
	// prefix, no Go digit separators.
	v, err := strconv.ParseUint(digits, base, 64)
	switch {
	case err != nil:
		return 0, false
	case s[0] == '-':
		return -int64(v), v <= 1<<63
	case v > math.MaxInt64:
		return int64(v), wrap && s[0] != '+'
	}
	return int64(v), true
}

// immValue parses an immediate: an integer, a decimal float like 1.5 or
// 2e-3, or a PTX hex float, which is 0F or 0f and exactly eight hex digits.
// Floats are returned as their bit patterns.
func immValue(arg string) (int64, bool) {
	switch {
	case strings.HasPrefix(arg, "0F") || strings.HasPrefix(arg, "0f"):
		bits, err := strconv.ParseUint(arg[2:], 16, 32)
		return int64(bits), err == nil && len(arg) == 10
	case strings.ContainsAny(arg, ".eE") && strings.Trim(arg, "0123456789.eE+-") == "":
		// Only the characters of a decimal float: ParseFloat checks their
		// order, and its hex floats, infinities and separators are out.
		f, err := strconv.ParseFloat(arg, 32)
		return int64(math.Float32bits(float32(f))), err == nil
	}
	return intLit(arg, true)
}

// specialNames[sel] is the special register S2R reads with selector sel.
var specialNames = [...]string{
	sass.SRLaneID: "%laneid", sass.SRWarpID: "%warpid",
	sass.SRTIDX: "%tid.x", sass.SRTIDY: "%tid.y", sass.SRTIDZ: "%tid.z",
	sass.SRCTAIDX: "%ctaid.x", sass.SRCTAIDY: "%ctaid.y", sass.SRCTAIDZ: "%ctaid.z",
	sass.SRNTIDX: "%ntid.x", sass.SRNTIDY: "%ntid.y", sass.SRNTIDZ: "%ntid.z",
	sass.SRNCTAIDX: "%nctaid.x", sass.SRNCTAIDY: "%nctaid.y", sass.SRNCTAIDZ: "%nctaid.z",
	sass.SRClock: "%clock", sass.SRSMID: "%smid",
}
