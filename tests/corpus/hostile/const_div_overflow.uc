/* Attack: `i64::MIN / -1` in a constant expression. The quotient does not
 * fit in 64 bits; a host-side `/` aborts the compiler (and `uc check`)
 * with an overflow panic. Constants wrap exactly like the run-time
 * arithmetic, so this is `i64::MIN`: a non-positive array extent, which
 * sema rejects with a diagnostic. */
int a[(0 - INF - 1) / (0 - 1)];

main() {
    a[0] = 1;
}
