/* A user function called from a `par` arm traps on the front end: the
 * error must unwind through the callee's activation, the arm's context
 * mask and the iteration space, and report the callee on the stack. */
#define N 4
index_set I:i = {0..N-1}, K:k = {2, 1, 0};
int a[N];
int inv(int d) {
    return 100 / d;
}
main() {
    par (I) a[i] = i;
    seq (K)
        par (I) a[i] = a[i] + inv(k);
}
