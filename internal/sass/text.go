package sass

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Format renders the instruction in the synthetic SASS assembly syntax, e.g.
//
//	@!P0 IADD R4, R5, R6, 12 ;
//	     LDG.W R8, [R4+0x10] ;
//	     ISETP.LT.U32 P1, R7, RZ, 100 ;
//
// The output round-trips through ParseInst.
func Format(in Inst) string { return string(AppendFormat(make([]byte, 0, 48), in)) }

// AppendFormat appends Format(in) to dst. It allocates only when dst has to
// grow, so a caller rendering a whole function pays for one buffer.
func AppendFormat(dst []byte, in Inst) []byte {
	if in.Guarded() {
		dst = append(dst, '@')
		if in.PredNeg {
			dst = append(dst, '!')
		}
		dst = append(dst, in.Pred.String()...)
		dst = append(dst, ' ')
	}
	dst = append(dst, in.Op.String()...)
	dst = appendSuffix(dst, in)
	dst = appendOperands(dst, &in)
	return append(dst, " ;"...)
}

// appendSuffix writes the modifiers the opcode's row spells: the sub-op's
// name, the flag suffix and .W.
func appendSuffix(dst []byte, in Inst) []byte {
	if sub := in.Op.SubOpName(in.Mods.SubOp()); sub != "" {
		dst = append(append(dst, '.'), sub...)
	}
	if flag := in.Op.shape().flag; in.Mods.Flag() && flag != "" {
		dst = append(append(dst, '.'), flag...)
	}
	if in.Mods.Wide() {
		dst = append(dst, ".W"...)
	}
	return dst
}

// appendOperands writes " op, op, ..." for the instruction's operand slots.
func appendOperands(dst []byte, in *Inst) []byte {
	sh := in.shape()
	for k, s := range sh.slots {
		if k == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		switch s.f {
		case fImm:
			if in.Imm >= 10 {
				dst = append(dst, "0x"...)
				dst = strconv.AppendInt(dst, in.Imm, 16)
			} else {
				dst = strconv.AppendInt(dst, in.Imm, 10)
			}
		case fSpecial:
			dst = append(dst, SpecialRegName(in.Imm)...)
		case fMRef:
			if sh.space == MemConst {
				dst = append(dst, "c["...)
				dst = strconv.AppendInt(dst, int64(in.Mods.SubOp()), 10)
				dst = append(dst, ']')
			}
			dst = append(dst, '[')
			dst = append(dst, in.Src1.String()...)
			switch {
			case in.Imm > 0:
				dst = append(dst, "+0x"...)
				dst = strconv.AppendInt(dst, in.Imm, 16)
			case in.Imm < 0: // as unsigned, so that the most negative offset prints too
				dst = append(dst, "-0x"...)
				dst = strconv.AppendUint(dst, uint64(-in.Imm), 16)
			}
			dst = append(dst, ']')
		case fFrame:
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, in.Imm, 10)
			dst = append(dst, ']')
		case fRegImm:
			dst = append(dst, in.Src1.String()...)
			dst = append(dst, '+')
			dst = strconv.AppendInt(dst, in.Imm, 10)
		default:
			if p, ok := in.pred(s); ok {
				dst = append(dst, p.String()...)
			} else {
				r, _, _ := in.reg(sh, s)
				dst = append(dst, r.String()...)
			}
		}
	}
	return dst
}

// ParseInst parses a single instruction in the syntax produced by Format.
// Labels are not resolved here; use ParseProgram for label-bearing sources.
func ParseInst(s string) (Inst, error) {
	in := NewInst(OpNOP)
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), ";"))
	if s == "" {
		return in, fmt.Errorf("sass: empty instruction")
	}
	// Guard predicate.
	if s[0] == '@' {
		sp := strings.IndexAny(s, " \t")
		if sp < 0 {
			return in, fmt.Errorf("sass: guard without opcode in %q", s)
		}
		g := s[1:sp]
		if strings.HasPrefix(g, "!") {
			in.PredNeg = true
			g = g[1:]
		}
		p, err := parsePred(g)
		if err != nil {
			return in, err
		}
		in.Pred = p
		s = strings.TrimSpace(s[sp:])
	}
	// Mnemonic and suffixes.
	sp := strings.IndexAny(s, " \t")
	mnem, rest := s, ""
	if sp >= 0 {
		mnem, rest = s[:sp], strings.TrimSpace(s[sp:])
	}
	parts := strings.Split(mnem, ".")
	op, ok := opByName(parts[0])
	if !ok {
		return in, fmt.Errorf("sass: unknown opcode %q", parts[0])
	}
	in.Op = op
	sh := op.shape()
	subOp, wide, flag := 0, false, false
	for _, sfx := range parts[1:] {
		n := slices.Index(sh.subOps, sfx)
		switch {
		case sfx == "":
			return in, fmt.Errorf("sass: empty suffix in %q", mnem)
		case sfx == "W":
			wide = true
		case sfx == sh.flag:
			flag = true
		case n >= 0:
			subOp = n
		default:
			return in, fmt.Errorf("sass: unknown suffix %q for %v", sfx, op)
		}
	}
	in.Mods = MakeMods(subOp, wide, flag, PT)
	if err := parseOperands(&in, rest); err != nil {
		return in, fmt.Errorf("sass: %v: %w (in %q)", op, err, s)
	}
	if err := in.Check(); err != nil {
		return in, fmt.Errorf("sass: %w (in %q)", err, s)
	}
	return in, nil
}

var opsByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := 0; op < NumOpcodes; op++ {
		m[Opcode(op).String()] = Opcode(op)
	}
	return m
}()

func opByName(s string) (Opcode, bool) {
	op, ok := opsByName[s]
	return op, ok
}

func parseReg(s string) (Reg, error) {
	s = strings.TrimSpace(s)
	if s == "RZ" {
		return RZ, nil
	}
	if !strings.HasPrefix(s, "R") {
		return RZ, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return RZ, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parsePred(s string) (Pred, error) {
	s = strings.TrimSpace(s)
	if s == "PT" {
		return PT, nil
	}
	if !strings.HasPrefix(s, "P") {
		return PT, fmt.Errorf("expected predicate, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumPreds {
		return PT, fmt.Errorf("bad predicate %q", s)
	}
	return Pred(n), nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMRef parses "[Rn]", "[Rn+off]", "[Rn-off]" or a bare "[off]".
func parseMRef(s string) (base Reg, off int64, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return RZ, 0, fmt.Errorf("expected memory reference, got %q", s)
	}
	inner := s[1 : len(s)-1]
	if !strings.HasPrefix(inner, "R") {
		off, err = parseImm(inner)
		return RZ, off, err
	}
	i := strings.IndexAny(inner, "+-")
	if i < 0 {
		base, err = parseReg(inner)
		return base, 0, err
	}
	base, err = parseReg(inner[:i])
	if err != nil {
		return RZ, 0, err
	}
	// A negative offset is parsed with its sign, so that the most negative
	// one parses too.
	if inner[i] == '+' {
		i++
	}
	off, err = parseImm(inner[i:])
	if err != nil {
		return RZ, 0, err
	}
	return base, off, nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseOperands parses one comma-separated token per operand slot of the
// opcode (and sub-op) already set in in.
func parseOperands(in *Inst, rest string) error {
	t := splitOperands(rest)
	sh := in.shape()
	if len(t) != len(sh.slots) {
		return fmt.Errorf("want %d operands, got %d", len(sh.slots), len(t))
	}
	for k, s := range sh.slots {
		var err error
		switch s.f {
		case fImm:
			in.Imm, err = parseImm(t[k])
		case fSpecial:
			in.Imm, err = parseSpecialReg(t[k])
		case fMRef:
			ref := t[k]
			if sh.space == MemConst {
				if ref, err = parseCBank(in, ref); err != nil {
					return err
				}
			}
			in.Src1, in.Imm, err = parseMRef(ref)
		case fFrame:
			_, in.Imm, err = parseMRef(t[k])
		case fRegImm:
			in.Src1, in.Imm, err = parseRegPlus(t[k])
		case fAux, fDstPred:
			var p Pred
			p, err = parsePred(t[k])
			in.setPred(s, p)
		default:
			r, _, _ := in.reg(sh, s)
			*r, err = parseReg(t[k])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseSpecialReg(s string) (int64, error) {
	for id := int64(0); id < NumSpecialRegs; id++ {
		if SpecialRegName(id) == s {
			return id, nil
		}
	}
	return 0, fmt.Errorf("unknown special register %q", s)
}

// parseCBank consumes the "c[bank]" prefix of a constant reference, stores
// the bank in the sub-op field and returns the "[Rn+off]" remainder.
func parseCBank(in *Inst, s string) (string, error) {
	end := strings.Index(s, "]")
	if !strings.HasPrefix(s, "c[") || end < 0 {
		return "", fmt.Errorf("expected constant reference, got %q", s)
	}
	bank, err := parseImm(s[2:end])
	if err != nil {
		return "", err
	}
	if bank < 0 || bank > 7 {
		return "", fmt.Errorf("constant bank %d out of range 0..7", bank)
	}
	in.Mods = in.Mods&^7 | Mods(bank)
	return s[end+1:], nil
}

// parseRegPlus parses "Rn+imm" (RDREG/WRREG register-index expressions).
func parseRegPlus(s string) (Reg, int64, error) {
	i := strings.Index(s, "+")
	if i < 0 {
		r, err := parseReg(s)
		return r, 0, err
	}
	r, err := parseReg(s[:i])
	if err != nil {
		return RZ, 0, err
	}
	v, err := parseImm(s[i+1:])
	return r, v, err
}
