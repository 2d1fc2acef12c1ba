// expect:
// Recursion through an escaped expression: `f(n - 1) + a[n % N]` reads
// an array element, so the tree evaluator runs the whole return value
// and the recursive call re-enters the VM from there.
#define N 4
index_set I:i = {0..N-1};
int a[N], out, deep;
int f(int n) {
    if (n <= 0) return a[0];
    return f(n - 1) + a[n % N];
}
main() {
    par (I) a[i] = i + 1;
    out = f(5);
    seq (I) deep = deep + f(i) * a[i];
}
