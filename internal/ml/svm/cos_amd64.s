#include "textflag.h"

// Offsets into cosLanes (cos_amd64.go), 32 bytes a row.
#define ABS 0
#define LIMIT 32
#define FOUR_OVER_PI 64
#define PI4A 96
#define PI4B 128
#define PI4C 160
#define SIN0 192
#define SIN1 224
#define SIN2 256
#define SIN3 288
#define SIN4 320
#define SIN5 352
#define COS0 384
#define COS1 416
#define COS2 448
#define COS3 480
#define COS4 512
#define COS5 544
#define HALF 576
#define ONE 608
#define SIGN 640
#define ONE32 672

// func cosRowAVX2(row []float64, scale float64, lanes *[22][4]uint64) int
//
// One lane is cosRowGo's loop body for x < 2²⁹. Every VMULPD, VADDPD and
// VSUBPD is one of its float64 operations, on the same operands in the
// same order; none is fused. The Plan 9 operand order is source(s) then
// destination: VSUBPD a, b, d is d = b − a.
TEXT ·cosRowAVX2(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	VBROADCASTSD scale+24(FP), Y9
	MOVQ lanes+32(FP), DX
	ANDQ $~3, CX
	XORQ BX, BX

loop:
	CMPQ BX, CX
	JAE  done
	VMOVUPD (SI)(BX*8), Y0
	VANDPD  ABS(DX), Y0, Y0            // x = |x|
	VCMPPD  $0x11, LIMIT(DX), Y0, Y1   // x < 2²⁹, false on NaN (LT_OQ)
	VMOVMSKPD Y1, AX
	CMPQ AX, $15
	JNE  done

	// j := int64(x * (4/π)); j += j & 1; y := float64(j). Below 2³⁰ the
	// truncation fits an int32.
	VMULPD  FOUR_OVER_PI(DX), Y0, Y1
	VCVTTPD2DQY Y1, X2
	VPAND   ONE32(DX), X2, X3
	VPADDD  X3, X2, X2
	VCVTDQ2PD X2, Y3                   // y
	VPMOVZXDQ X2, Y2                   // q := uint64(j)

	// z := ((x - y*pi4A) - y*pi4B) - y*pi4C
	VMULPD  PI4A(DX), Y3, Y4
	VSUBPD  Y4, Y0, Y0
	VMULPD  PI4B(DX), Y3, Y4
	VSUBPD  Y4, Y0, Y0
	VMULPD  PI4C(DX), Y3, Y4
	VSUBPD  Y4, Y0, Y0                 // z
	VMULPD  Y0, Y0, Y1                 // zz := z * z

	// ys := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	VMULPD  SIN0(DX), Y1, Y4
	VADDPD  SIN1(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  SIN2(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  SIN3(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  SIN4(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  SIN5(DX), Y4, Y4
	VMULPD  Y1, Y0, Y5                 // z*zz
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y5                 // ys

	// yc := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	VMULPD  COS0(DX), Y1, Y4
	VADDPD  COS1(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  COS2(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  COS3(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  COS4(DX), Y4, Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  COS5(DX), Y4, Y4
	VMULPD  Y1, Y1, Y6                 // zz*zz
	VMULPD  Y4, Y6, Y6
	VMULPD  HALF(DX), Y1, Y7           // 0.5*zz
	VMOVUPD ONE(DX), Y8
	VSUBPD  Y7, Y8, Y7                 // 1.0 - 0.5*zz
	VADDPD  Y6, Y7, Y6                 // yc

	// Bit 1 of q picks sin, by the sign bit of q<<62; bit 1 xor bit 2
	// flips the sign.
	VPSLLQ  $62, Y2, Y7
	VBLENDVPD Y7, Y5, Y6, Y4           // bit 1 ? ys : yc
	VPSLLQ  $61, Y2, Y8
	VPXOR   Y7, Y8, Y8
	VPAND   SIGN(DX), Y8, Y8
	VXORPD  Y8, Y4, Y4
	VMULPD  Y4, Y9, Y4                 // scale * ...
	VMOVUPD Y4, (SI)(BX*8)
	ADDQ $4, BX
	JMP  loop

done:
	VZEROUPPER
	MOVQ BX, ret+40(FP)
	RET

// func cpuid(eax, ecx uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eax+0(FP), AX
	MOVL ecx+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
