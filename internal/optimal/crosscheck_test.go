package optimal

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

func TestVerifyDeltaIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	blocks := make([]uint64, 2000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << 6))
	}
	p := profile.Build(blocks, 6, 8)
	for d := 1; d <= 3; d++ {
		checked, err := VerifyDeltaIdentity(context.Background(), p, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if checked == 0 {
			t.Fatalf("d=%d: verified zero (V, W) pairs", d)
		}
	}
	if _, err := VerifyDeltaIdentity(context.Background(), p, 0); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("d=0: err = %v, want ErrInvalidOptions", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyDeltaIdentity(ctx, p, 3); !errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled", err)
	}
}

func TestProfileBestBitSelectRejectsSparse(t *testing.T) {
	sb := profile.NewBuilder(30, 8) // n > MaxFlatBits: sparse backend
	for _, b := range []uint64{1, 2, 1, 2} {
		sb.Add(b)
	}
	_, err := ProfileBestBitSelect(sb.Finish(), 4)
	if !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("sparse profile: err = %v, want ErrInvalidOptions", err)
	}
}
