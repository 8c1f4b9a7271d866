package hawccc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAssemblyIsVEXEncoded guards the amd64 kernels against the
// SSE/AVX transition penalty. Every instruction in an
// internal/**/asm_amd64.s file — macro bodies expanded where they are
// invoked — that names an X or Y register must be VEX-encoded (its Go
// mnemonic starts with V): one legacy-SSE MOVQ into an XMM register
// inside a VEX kernel once tripled that kernel's time. And every
// function that writes a Y register must execute VZEROUPPER before each
// RET, so the SSE code Go runs after it pays no transition either.
func TestAssemblyIsVEXEncoded(t *testing.T) {
	var files []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "asm_amd64.s" {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("found %d asm_amd64.s files under internal/, want the geometry and the network kernels", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range checkAsm(string(src)) {
			t.Errorf("%s: %s", f, p)
		}
	}
}

// TestCheckAsmCatchesTheTraps holds checkAsm to the faults it exists
// for, in straight code and inside a macro.
func TestCheckAsmCatchesTheTraps(t *testing.T) {
	for _, c := range []struct {
		name, src string
		bad       bool
	}{
		{"clean", "TEXT ·f(SB), NOSPLIT, $0\n\tVMOVQ AX, X10\n\tVBROADCASTSD X10, Y1\n\tVZEROUPPER\n\tRET\n", false},
		{"sse move", "TEXT ·f(SB), NOSPLIT, $0\n\tMOVQ AX, X10\n\tVZEROUPPER\n\tRET\n", true},
		{"sse in a macro", "#define LOAD(r) \\\n\tMOVUPS (SI), r\n\nTEXT ·f(SB), NOSPLIT, $0\n\tLOAD(X3)\n\tRET\n", true},
		{"no vzeroupper", "TEXT ·f(SB), NOSPLIT, $0\n\tVXORPS Y0, Y0, Y0\n\tRET\n", true},
		{"y write in a macro", "#define Z(r) VXORPS r, r, r\n\nTEXT ·f(SB), NOSPLIT, $0\n\tZ(Y2)\n\tRET\n", true},
		{"ret past a label", "TEXT ·f(SB), NOSPLIT, $0\n\tVXORPS Y0, Y0, Y0\n\tJZ done\n\tVZEROUPPER\ndone:\n\tRET\n", true},
		{"xmm only", "TEXT ·f(SB), NOSPLIT, $0\n\tVXORPS X0, X0, X0\n\tRET\n", false},
	} {
		if got := len(checkAsm(c.src)) > 0; got != c.bad {
			t.Errorf("%s: checkAsm reports %v, want a fault %v", c.name, checkAsm(c.src), c.bad)
		}
	}
}

var (
	vecReg  = regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)
	yReg    = regexp.MustCompile(`^Y([0-9]|[12][0-9]|3[01])$`)
	label   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*:`)
	macroID = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^)]*)\))?\s*(.*)$`)
)

// asmMacro is one #define: its parameters and its body's statements.
type asmMacro struct {
	params []string
	body   []string
}

// checkAsm returns the faults TestAssemblyIsVEXEncoded looks for in one
// Go assembly source.
func checkAsm(src string) []string {
	src = regexp.MustCompile(`(?s)/\*.*?\*/`).ReplaceAllString(src, "")
	var lines []string
	for _, l := range strings.Split(src, "\n") {
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		lines = append(lines, l)
	}
	macros := map[string]asmMacro{}
	var stmts []string
	for i := 0; i < len(lines); i++ {
		l := strings.TrimSpace(lines[i])
		if rest, ok := strings.CutPrefix(l, "#define"); ok {
			// The body runs on while lines end in a backslash; each
			// line and each ;-separated piece is one statement.
			var body []string
			for strings.HasSuffix(l, `\`) && i+1 < len(lines) {
				i++
				l = strings.TrimSpace(lines[i])
				body = append(body, strings.TrimSuffix(rest, `\`))
				rest = l
			}
			body = append(body, rest)
			m := macroID.FindStringSubmatch(strings.TrimSpace(strings.TrimSuffix(body[0], `\`)))
			if m == nil {
				continue
			}
			def := asmMacro{}
			for _, p := range strings.Split(m[2], ",") {
				if p = strings.TrimSpace(p); p != "" {
					def.params = append(def.params, p)
				}
			}
			body[0] = m[3]
			for _, b := range body {
				def.body = append(def.body, splitStmts(strings.TrimSuffix(b, `\`))...)
			}
			macros[m[1]] = def
			continue
		}
		if strings.HasPrefix(l, "#") {
			continue
		}
		stmts = append(stmts, splitStmts(l)...)
	}

	var faults []string
	fn := ""
	writesY := false
	var code []string // fn's statements so far, labels included
	for _, s := range expand(stmts, macros, 0) {
		if strings.HasPrefix(s, "TEXT") {
			fn, writesY, code = strings.Fields(s)[1], false, nil
			continue
		}
		for label.MatchString(s) {
			lbl := label.FindString(s)
			code = append(code, lbl)
			s = strings.TrimSpace(s[len(lbl):])
		}
		if s == "" || fn == "" {
			continue
		}
		op, args, _ := strings.Cut(s, " ")
		if vecReg.MatchString(args) && !strings.HasPrefix(op, "V") {
			faults = append(faults, fmt.Sprintf("%s: %q is not VEX-encoded", fn, s))
		}
		if ops := strings.Split(args, ","); yReg.MatchString(strings.TrimSpace(ops[len(ops)-1])) {
			writesY = true
		}
		if op == "RET" && writesY && !clearedBefore(code) {
			faults = append(faults, fmt.Sprintf("%s: a RET is not preceded by VZEROUPPER on every path", fn))
		}
		code = append(code, s)
	}
	return faults
}

// splitStmts splits one line into its ;-separated statements.
func splitStmts(l string) []string {
	var out []string
	for _, s := range strings.Split(l, ";") {
		if s = strings.Join(strings.Fields(s), " "); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// expand replaces every macro invocation in stmts with the macro's body,
// its parameters substituted word for word.
func expand(stmts []string, macros map[string]asmMacro, depth int) []string {
	var out []string
	for _, s := range stmts {
		m := macroID.FindStringSubmatch(s)
		def, ok := macros[m[1]]
		if !ok || depth > 8 {
			out = append(out, s)
			continue
		}
		var args []string
		if m[2] != "" {
			args = strings.Split(m[2], ",")
		}
		var body []string
		for _, b := range def.body {
			for i, p := range def.params {
				if i < len(args) {
					b = regexp.MustCompile(`\b`+regexp.QuoteMeta(p)+`\b`).ReplaceAllString(b, strings.TrimSpace(args[i]))
				}
			}
			body = append(body, b)
		}
		out = append(out, expand(body, macros, depth+1)...)
	}
	return out
}

// clearedBefore reports whether the code before a RET ends in VZEROUPPER
// followed only by instructions that name no vector register — no label
// between, since a jump to it may skip the VZEROUPPER.
func clearedBefore(code []string) bool {
	for i := len(code) - 1; i >= 0; i-- {
		s := code[i]
		switch {
		case s == "VZEROUPPER":
			return true
		case strings.HasSuffix(s, ":"), vecReg.MatchString(s):
			return false
		}
	}
	return false
}
