// expect:
// A set and a local array declared in a recursive function: each of the
// four working activations defines its own `R` and `tmp` and runs two
// `par`s and a reduction over them before recursing.
#define N 4
int out[N], total;
int walk(int d) {
    if (d == 0) return 0;
    index_set R:r = {0..N-1};
    int tmp[N];
    par (R) tmp[r] = r + d;
    par (R) st (r == d - 1) out[r] = tmp[r] * 2;
    return $+(R; tmp[r]) + walk(d - 1);
}
main() {
    total = walk(N);
}
