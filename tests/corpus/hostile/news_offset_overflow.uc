/* Attack: a subscript whose constant offset overflows when it is added to
 * the index set's lower bound (`1 + INF`). The subscript classifier must
 * fall back to the general router instead of aborting — at run time and
 * in `uc check`'s communication lint alike — and the write then traps as
 * out of bounds. */
#define N 4
index_set I:i = {1..N};
int a[8];

main() {
    par (I) a[i + INF] = 0;
}
