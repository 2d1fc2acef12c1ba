// Front end only: M calls of a scalar function, visiting 1..M in the order
// (k * A) % M + 1 (M is prime, so every A in 1..M-1 gives a permutation).
// Everything but the two stores into `out` is register code in the VM —
// calls, loops, integer arithmetic on locals and constants — which makes
// this the program to read `uc run --emit ir` on: one Collatz step is ten
// instructions, each operand a local or a constant register.
#define M 1009
#define A 811
int total, longest, mix;
int out[2];
int collatz(int n) {
    int steps;
    steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps = steps + 1;
    }
    return steps;
}
main() {
    int k, s;
    total = 0; longest = 0; mix = 0;
    for (k = 0; k < M; k = k + 1) {
        s = collatz((k * A) % M + 1);
        total = total + s;
        mix = (mix * 31 + s) % 1000003;
        if (s > longest) longest = s;
    }
    out[0] = total;
    out[1] = mix;
}
