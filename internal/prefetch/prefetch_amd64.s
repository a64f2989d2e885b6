//go:build amd64

#include "textflag.h"

// func line(p unsafe.Pointer)
// PREFETCHT0 hints the line into all cache levels. The instruction never
// faults — an invalid address is simply ignored — so the stub needs no
// checks around it.
TEXT ·line(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	RET

// func lines(p unsafe.Pointer, n int)
TEXT ·lines(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	TESTQ CX, CX
	JLE  done
loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	DECQ CX
	JNZ  loop
done:
	RET
