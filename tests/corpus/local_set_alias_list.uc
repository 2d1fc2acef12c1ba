// expect:
// A local alias of a global alias (`K = J = I`), and a list set `{5, 6}`
// that shadows the global `I` inside a `par` over that same `I`: the
// reduction ranges over the inner set, `i` is still the outer element.
#define N 4
index_set I:i = {0..N-1}, J:j = I;
int a[N], b[N], s;
main() {
    index_set K:k = J;
    par (K) b[k] = k * 2;
    par (I) {
        index_set I:m = {5, 6};
        a[i] = i + $+(I; m * b[i]);
    }
    s = $+(J; a[j]);
}
