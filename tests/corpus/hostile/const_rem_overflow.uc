/* Attack: `i64::MIN % -1` in a constant expression. The remainder is 0,
 * but computing it with a host-side `%` overflows and aborts. Wrapping
 * gives 0: a non-positive array extent, rejected with a diagnostic. */
int a[(0 - INF - 1) % (0 - 1)];

main() {
    a[0] = 1;
}
