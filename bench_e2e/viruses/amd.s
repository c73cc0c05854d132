// auto-generated individual: child
// isa: x86-64, loop length: 50
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
    init f0, 1.5000
    init f1, 1.7500
    init f2, 2.0000
    init f3, 2.2500
    init f4, 2.5000
    init f5, 2.7500
    init f6, 3.0000
    init f7, 3.2500
    init v0, {0, 1, 2, 3}
    init v1, {1, 2, 3, 4}
    init v2, {2, 3, 4, 5}
    init v3, {3, 4, 5, 6}
    init v4, {4, 5, 6, 7}
    init v5, {5, 6, 7, 8}
    init v6, {6, 7, 8, 9}
    init v7, {7, 8, 9, 10}
    init v8, {8, 9, 10, 11}
    init v9, {9, 10, 11, 12}
    init v10, {10, 11, 12, 13}
    init v11, {11, 12, 13, 14}
    init v12, {12, 13, 14, 15}
    init v13, {13, 14, 15, 16}
    init v14, {14, 15, 16, 17}
    init v15, {15, 16, 17, 18}
virus_loop:
    addss f6, f4, f1
    mov_mr r4, [mem+50]
    sub_rr r2, r6, r3
    pmaddwd v10, v15, v9
    mulss f3, f4, f3
    xor_rm r4, r11, [mem+30]
    mulpd v5, v7, v5
    xor_rm r11, r11, [mem+40]
    sub_rr r8, r5, r2
    pmaddwd v5, v12, v5
    imul_rr r9, r7, r2
    imul_rr r11, r1, r13
    jmp_next 
    xor_rm r1, r3, [mem+46]
    mov_mr r5, [mem+29]
    imul_rm r10, r10, [mem+38]
    sub_rr r10, r7, r2
    imul_rm r3, r4, [mem+43]
    addss f0, f5, f1
    pmaddwd v5, v3, v8
    divss f3, f5, f1
    add_rr r5, r11, r9
    mov_rm r3, [mem+23]
    addpd v2, v14, v13
    mov_rm r10, [mem+6]
    mov_mr r10, [mem+59]
    imul_rr r4, r6, r2
    xor_rr r2, r1, r9
    addss f4, f7, f6
    imul_rr r10, r1, r9
    mulss f3, f4, f4
    sub_rr r6, r10, r7
    idiv_rr r12, r3, r3
    xor_rm r12, r6, [mem+38]
    pmaddwd v11, v15, v5
    pmaddwd v9, v1, v4
    mov_mr r8, [mem+63]
    imul_rr r5, r6, r9
    mulpd v0, v13, v9
    sub_rr r1, r11, r9
    idiv_rr r6, r7, r0
    xor_rm r9, r7, [mem+44]
    xor_rm r12, r9, [mem+26]
    addss f2, f2, f7
    xor_rr r12, r10, r9
    pmaddwd v5, v14, v6
    add_rr r0, r3, r8
    add_rr r11, r0, r11
    jmp_next 
    imul_rr r9, r10, r8
    b virus_loop
