package optimal

import (
	"context"
	"errors"
	"testing"

	"xoridx/internal/profile"
	"xoridx/internal/xerr"
)

func optCtxBlocks() []uint64 {
	blocks := make([]uint64, 2000)
	for i := range blocks {
		blocks[i] = uint64(i*64) & 0xfff
	}
	return blocks
}

func TestExactBitSelectCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExactBitSelect(ctx, optCtxBlocks(), 12, 6)
	if !errors.Is(err, xerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must wrap ErrCanceled and context.Canceled", err)
	}
}

func TestProfileBestBitSelectCtxCanceled(t *testing.T) {
	p := profile.Build(optCtxBlocks(), 12, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ProfileBestBitSelect(ctx, p, 6)
	if !errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("error %v must wrap ErrCanceled", err)
	}
}

func TestExhaustiveXORCtxCanceled(t *testing.T) {
	p := profile.Build(optCtxBlocks(), 10, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExhaustiveXOR(ctx, p, 5)
	if !errors.Is(err, xerr.ErrCanceled) {
		t.Fatalf("error %v must wrap ErrCanceled", err)
	}
}

func TestOptimalTypedOptionErrors(t *testing.T) {
	if _, err := ExactBitSelect(context.Background(), nil, 12, 0); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("m=0 error %v must wrap ErrInvalidOptions", err)
	}
	p := profile.Build([]uint64{1, 2, 3}, 10, 32)
	if _, err := ProfileBestBitSelect(context.Background(), p, 10); !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Errorf("m=n error %v must wrap ErrInvalidOptions", err)
	}
}

func TestProfileBestBitSelectRejectsSparse(t *testing.T) {
	sb := profile.NewBuilder(30, 8) // n > MaxFlatBits: sparse backend
	for _, b := range []uint64{1, 2, 1, 2} {
		sb.Add(b)
	}
	_, err := ProfileBestBitSelect(context.Background(), sb.Finish(), 4)
	if !errors.Is(err, xerr.ErrInvalidOptions) {
		t.Fatalf("sparse profile: err = %v, want ErrInvalidOptions", err)
	}
}
