package harness

// Rows lists a section's rows in the order their arms were laid out.
func (t *Table) Rows(section string) []string {
	for _, s := range t.sections {
		if s.title == section {
			return s.rows
		}
	}
	return nil
}
