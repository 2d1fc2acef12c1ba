/* Unbounded recursion whose recursive call sits inside an expression the
 * tree evaluator runs (it reads an array element): every level re-enters
 * the VM from tree code, and the depth budget must still trap it. */
int a[2];
int out;
int down(int n) {
    return down(n + 1) + a[0];
}
main() {
    out = down(0);
}
