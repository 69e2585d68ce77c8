#include "go_asm.h"
#include "textflag.h"

// func offset(l *Ledger) int
TEXT ·offset(SB), NOSPLIT, $0-16
	MOVQ l+0(FP), AX
	MOVQ Ledger_offset(AX), AX
	MOVQ AX, ret+8(FP)
	RET
