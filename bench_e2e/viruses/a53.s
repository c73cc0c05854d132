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
    init f6, 3.0000
    init f7, 3.2500
    init f8, 3.5000
    init f9, 3.7500
    init f10, 4.0000
    init f12, 4.5000
    init f13, 4.7500
    init f15, 5.2500
    init v0, {0, 1, 2, 3}
    init v1, {1, 2, 3, 4}
    init v2, {2, 3, 4, 5}
    init v3, {3, 4, 5, 6}
    init v5, {5, 6, 7, 8}
    init v6, {6, 7, 8, 9}
    init v7, {7, 8, 9, 10}
    init v8, {8, 9, 10, 11}
    init v9, {9, 10, 11, 12}
    init v10, {10, 11, 12, 13}
    init v11, {11, 12, 13, 14}
    init v13, {13, 14, 15, 16}
    init v14, {14, 15, 16, 17}
    init v15, {15, 16, 17, 18}
virus_loop:
    str r8, [mem+7]
    fmov f9, f2
    add r8, r13, r7
    add r8, r11, r4
    vmul v6, v13, v0
    ldr r6, [mem+42]
    mul r5, r14, r9
    vmul v15, v8, v5
    fadd f15, f9, f10
    udiv r2, r1, r13
    mul r6, r12, r8
    mul r7, r9, r8
    str r6, [mem+47]
    vadd v7, v13, v7
    add r12, r3, r9
    ldr r7, [mem+32]
    fmul f9, f15, f0
    vfma v9, v15, v6, v0
    vmul v10, v10, v13
    vmul v10, v2, v8
    mul r8, r5, r14
    vmul v0, v3, v2
    b.next 
    vadd v13, v3, v5
    b.next 
    add r11, r14, r8
    vadd v13, v1, v15
    mul r2, r12, r12
    madd r10, r12, r7, r6
    str r10, [mem+41]
    vfma v14, v3, v11, v13
    sub r8, r12, r11
    orr r3, r5, r6
    vadd v2, v9, v8
    vmul v13, v15, v8
    vadd v11, v10, v3
    ldr r2, [mem+53]
    fmul f12, f6, f1
    mul r11, r10, r13
    ldr r8, [mem+47]
    fmul f13, f8, f7
    mov r7, r6
    madd r6, r14, r9, r15
    ldr r1, [mem+31]
    udiv r2, r13, r15
    udiv r3, r9, r0
    madd r5, r5, r4, r15
    madd r9, r9, r7, r8
    vmul v15, v13, v5
    orr r9, r13, r0
    b virus_loop
