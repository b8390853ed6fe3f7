package xplace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const loadTestLEF = `MACRO INV
  CLASS CORE ;
  SIZE 2 BY 8 ;
  PIN A
    DIRECTION INPUT ;
    PORT
      LAYER metal1 ;
      RECT 0.2 3.0 0.6 5.0 ;
    END
  END A
  PIN Z
    DIRECTION OUTPUT ;
    PORT
      LAYER metal1 ;
      RECT 1.4 3.0 1.8 5.0 ;
    END
  END Z
END INV
`

const loadTestDEF = `VERSION 5.8 ;
DESIGN toy ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 200 160 ) ;
ROW r0 core 0 0 N DO 100 BY 1 STEP 2 0 ;
COMPONENTS 2 ;
- u1 INV + PLACED ( 10 0 ) N ;
- u2 INV + FIXED ( 20 8 ) N ;
END COMPONENTS
NETS 1 ;
- n1 ( u1 Z ) ( u2 A ) ;
END NETS
END DESIGN
`

// TestLoadBookshelfByExtension: Load on a .aux path takes the bookshelf
// path and round-trips a written design.
func TestLoadBookshelfByExtension(t *testing.T) {
	d := sessionTestDesign(t, 120, 41)
	dir := t.TempDir()
	if err := WriteBookshelf(dir, "toy", d); err != nil {
		t.Fatal(err)
	}
	got, err := Load(filepath.Join(dir, "toy.aux"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != d.NumCells() || got.NumNets() != d.NumNets() {
		t.Errorf("round trip: %d cells / %d nets, want %d / %d",
			got.NumCells(), got.NumNets(), d.NumCells(), d.NumNets())
	}
}

// TestLoadDEF: Load detects DEF by extension and by content sniffing, with
// the LEF library named by WithLEF.
func TestLoadDEF(t *testing.T) {
	dir := t.TempDir()
	lefPath := filepath.Join(dir, "lib.lef")
	defPath := filepath.Join(dir, "toy.def")
	sniffPath := filepath.Join(dir, "design_no_ext")
	for path, body := range map[string]string{
		lefPath: loadTestLEF, defPath: loadTestDEF, sniffPath: loadTestDEF,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, err := Load(defPath, WithLEF(lefPath))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCells() == 0 || d.NumNets() != 1 {
		t.Errorf("DEF load: %d cells / %d nets", d.NumCells(), d.NumNets())
	}

	// Content sniffing on an extensionless DEF.
	if _, err := Load(sniffPath, WithLEF(lefPath)); err != nil {
		t.Errorf("sniffed DEF: %v", err)
	}

	// DEF without a library is a descriptive error, not a panic.
	if _, err := Load(defPath); err == nil || !strings.Contains(err.Error(), "LEF") {
		t.Errorf("missing-LEF error = %v", err)
	}
}

// TestLoadRejections: .lef paths point to WithLEF, unknown formats and
// missing files error out cleanly.
func TestLoadRejections(t *testing.T) {
	dir := t.TempDir()
	lefPath := filepath.Join(dir, "lib.lef")
	if err := os.WriteFile(lefPath, []byte(loadTestLEF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(lefPath); err == nil || !strings.Contains(err.Error(), "WithLEF") {
		t.Errorf("LEF-path error = %v", err)
	}

	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, []byte("nothing placement-shaped here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(junk); err == nil || !strings.Contains(err.Error(), "detect") {
		t.Errorf("unknown-format error = %v", err)
	}

	if _, err := Load(filepath.Join(dir, "absent.aux")); err == nil {
		t.Error("missing .aux did not error")
	}
	if _, err := Load(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing extensionless file did not error")
	}
}
