package cgp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cgp/internal/workload"
)

// Golden digests of outputs that any change to the simulator's speed
// must leave byte-identical. TestFigureBytesReproducible compares two
// runs of the same build, so it cannot see a change that moves a
// number; these digests pin the bytes across builds. A change that is
// meant to alter results must update them and say why.
const (
	// goldenFigureDigest is the SHA-256 of smallRunner()'s Figure 7
	// Markdown followed by its Figure 9 Markdown.
	goldenFigureDigest = "222545d7dfb46a083442159d6a423c1d01af9d3de5a3dc24ce27bdc18d3252ea"
	// goldenRecordingDigest is the SHA-256 of smallRunner()'s sealed
	// wisc-prof O5 recording in the on-disk trace format.
	goldenRecordingDigest = "edd1b6f31c61519295859cb1deac52b998503df87adb429b91188833fa1b1f1e"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenDigests(t *testing.T) {
	ctx := context.Background()
	r := smallRunner()
	fig7, err := r.Figure7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := r.Figure9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex([]byte(fig7.Markdown() + fig9.Markdown())); got != goldenFigureDigest {
		t.Errorf("Figure 7 + 9 Markdown sha256 = %s, golden %s", got, goldenFigureDigest)
	}
	rec, err := r.recordingFor(ctx, workload.WiscProf(r.opts.DB), LayoutO5)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := rec.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(file.Bytes()); got != goldenRecordingDigest {
		t.Errorf("wisc-prof O5 recording sha256 = %s (%d bytes), golden %s", got, rec.Bytes(), goldenRecordingDigest)
	}
}
