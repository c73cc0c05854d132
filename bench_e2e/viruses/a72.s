// auto-generated individual: child
// isa: armv8, loop length: 50
.data
buffer: .skip 512
.text
.global _start
_start:
    init r0, 4660
    init r1, 4677
    init r2, 4694
    init r3, 4711
    init r4, 4728
    init r5, 4745
    init r6, 4762
    init r7, 4779
    init r8, 4796
    init r9, 4813
    init r10, 4830
    init r11, 4847
    init r12, 4864
    init r13, 4881
    init r14, 4898
    init r15, 4915
    init f0, 1.5000
    init f1, 1.7500
    init f2, 2.0000
    init f3, 2.2500
    init f5, 2.7500
    init f6, 3.0000
    init f7, 3.2500
    init f8, 3.5000
    init f9, 3.7500
    init f11, 4.2500
    init f12, 4.5000
    init f13, 4.7500
    init f15, 5.2500
    init v0, {0, 1, 2, 3}
    init v1, {1, 2, 3, 4}
    init v3, {3, 4, 5, 6}
    init v4, {4, 5, 6, 7}
    init v5, {5, 6, 7, 8}
    init v6, {6, 7, 8, 9}
    init v7, {7, 8, 9, 10}
    init v8, {8, 9, 10, 11}
    init v9, {9, 10, 11, 12}
    init v11, {11, 12, 13, 14}
    init v12, {12, 13, 14, 15}
    init v13, {13, 14, 15, 16}
    init v14, {14, 15, 16, 17}
    init v15, {15, 16, 17, 18}
virus_loop:
    vmul v13, v7, v12
    fadd f5, f11, f6
    fmov f2, f1
    add r13, r5, r7
    sub r10, r9, r5
    vmul v13, v8, v0
    vfma v13, v12, v8, v9
    add r3, r11, r3
    udiv r1, r10, r11
    fdiv f2, f6, f0
    str r10, [mem+50]
    mul r13, r7, r13
    mov r1, r5
    fmul f6, f15, f1
    str r15, [mem+21]
    str r4, [mem+51]
    mul r14, r1, r10
    sub r13, r2, r4
    ldr r12, [mem+41]
    add r2, r7, r6
    sub r12, r0, r3
    eor r10, r7, r3
    fmul f15, f9, f3
    add r7, r14, r14
    vadd v14, v0, v4
    orr r6, r1, r4
    fadd f3, f6, f12
    str r8, [mem+35]
    vadd v0, v4, v13
    fadd f13, f3, f8
    fdiv f8, f7, f12
    mul r13, r5, r0
    add r1, r10, r6
    sub r0, r5, r5
    vmul v12, v3, v11
    vfma v9, v13, v4, v5
    add r15, r5, r5
    sdiv r4, r8, r2
    mul r13, r5, r7
    vmul v6, v0, v12
    vfma v1, v14, v1, v1
    madd r12, r8, r2, r11
    orr r2, r1, r4
    fmul f1, f0, f5
    fadd f5, f11, f15
    b.next 
    vadd v5, v15, v11
    mov r1, r12
    fmov f12, f12
    fadd f9, f5, f2
    b virus_loop
